//! Extension methods beyond the paper's 16 implementations.
//!
//! Table I *surveys* more methods than GRACE implements; this module adds
//! seven of the surveyed-but-unimplemented rows, plus an entropy-coding
//! adapter, built on the same API (the
//! "researchers implement novel methods" use case of §I):
//!
//! | Method | Table-I row | Class |
//! |---|---|---|
//! | [`VarianceSparsifier`] | Wangni et al., NeurIPS'18 | Sparsification |
//! | [`SketchedSgd`] | Ivkin et al., NeurIPS'19 | Sparsification |
//! | [`ThreeLc`] | Lim et al., MLSys'19 | Hybrid |
//! | [`QsparseLocal`] | Basu et al., NeurIPS'19 | Hybrid |
//! | [`SpectralLowRank`] | spectral-ATOMO / GradiVeQ | Low rank |
//! | [`LpcSvrg`] | Yu, Wu & Huang, AISTATS'19 | Quantization |
//! | [`Atomo`] | Wang et al., NeurIPS'18 | Low rank |
//! | [`EntropyCoded`] | Gajjala et al. (paper reference 81) | adapter over any method |
//!
//! [`extension_specs`] registers them with the same metadata scheme so the
//! experiment harness can sweep them alongside the core 16.

mod atomo;
mod count_sketch;
mod entropy;
mod lpc_svrg;
mod qsparse_local;
mod sketched_sgd;
mod spectral;
mod three_lc;
mod variance;

pub use atomo::Atomo;
pub use count_sketch::CountSketch;
pub use entropy::EntropyCoded;
pub use lpc_svrg::LpcSvrg;
pub use qsparse_local::QsparseLocal;
pub use sketched_sgd::SketchedSgd;
pub use spectral::SpectralLowRank;
pub use three_lc::ThreeLc;
pub use variance::VarianceSparsifier;

use crate::registry::spec;
use grace_core::{CompressorClass, CompressorSpec, Nature, OutputSize};

/// The extension methods' specs (not part of the paper's implemented 16).
pub fn extension_specs() -> Vec<CompressorSpec> {
    use CompressorClass::*;
    use Nature::*;
    use OutputSize::*;
    vec![
        spec(
            "variance",
            "Variance(0.01)",
            Sparsification,
            Adaptive,
            Random,
            false, // unbiased by construction
            (6.0, 6.0),
            |seed| Box::new(VarianceSparsifier::new(0.01, seed)),
        ),
        spec(
            "sketchedsgd",
            "SketchedSGD(5x256)",
            Sparsification,
            K,
            Random,
            true,
            (8.0, 12.0),
            |_| Box::new(SketchedSgd::new(5, 256, 0.01)),
        ),
        spec(
            "threelc",
            "3LC(1.0)",
            Hybrid,
            Adaptive,
            Deterministic,
            true, // 3LC implements error compensation
            (6.0, 5.0),
            |_| Box::new(ThreeLc::new(1.0)),
        ),
        spec(
            "qsparselocal",
            "Qsparse(0.01,8)",
            Hybrid,
            Adaptive,
            Random,
            true,
            (7.0, 6.0),
            |seed| Box::new(QsparseLocal::new(0.01, 8, seed)),
        ),
        spec(
            "lpcsvrg",
            "LPC-SVRG(4)",
            Quantization,
            Full,
            Random,
            false, // unbiased randomized rounding
            (5.0, 4.0),
            |seed| Box::new(LpcSvrg::new(4, seed)),
        ),
        spec(
            "atomo",
            "ATOMO(2)",
            LowRank,
            LowRankFactors,
            Random,
            true,
            (9.0, 8.0),
            |seed| Box::new(Atomo::new(2.0, 6, seed)),
        ),
        spec(
            "ecqsgd",
            "QSGD(64)+EC",
            Quantization,
            Full,
            Random,
            false,
            (7.0, 7.0), // extra encode/decode passes over the code-words
            |seed| Box::new(EntropyCoded::new(crate::Qsgd::new(64, seed))),
        ),
        spec(
            "spectral",
            "Spectral(4)",
            LowRank,
            LowRankFactors,
            Deterministic,
            true,
            (8.0, 6.0),
            |_| Box::new(SpectralLowRank::new(4, 3)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::gradient;

    #[test]
    fn eight_extensions_registered() {
        let specs = extension_specs();
        assert_eq!(specs.len(), 8);
        let core_ids: Vec<&str> = crate::registry::all_specs().iter().map(|s| s.id).collect();
        for s in &specs {
            assert!(!core_ids.contains(&s.id), "{} collides with core 16", s.id);
        }
    }

    #[test]
    fn extensions_roundtrip_and_shrink() {
        for spec in extension_specs() {
            let mut c = (spec.build)(7);
            let mut g = gradient(8_000, 3).reshape(grace_tensor::Shape::matrix(100, 80));
            g.scale(0.01);
            let (payloads, ctx) = c.compress(&g, "layer/w");
            let bytes = grace_core::payload::total_bytes(&payloads) + ctx.meta_bytes();
            let out = c.decompress(&payloads, &ctx);
            assert_eq!(out.shape(), g.shape(), "{}", spec.id);
            assert!(out.is_finite(), "{}", spec.id);
            assert!(
                bytes < 8_000 * 4,
                "{}: {bytes} >= raw {}",
                spec.id,
                8_000 * 4
            );
        }
    }
}
