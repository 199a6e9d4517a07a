//! Top-k sparsification (Aji & Heafield, EMNLP'17; Stich et al., NeurIPS'18).

use super::{check_sparse, ratio_to_k, sparse_decompress, sparse_payloads, SparseFold};
use grace_core::{Compressor, Context, Payload, PayloadError, PayloadList};
use grace_tensor::select::{gather, top_k_indices_with};
use grace_tensor::simd::Fold;
use grace_tensor::Tensor;

/// Top-k: transmits the `k = ⌈ratio·d⌉` elements of largest magnitude, as
/// in the paper's Figure 4 (values + indices). Deterministic and biased;
/// the paper runs it with error feedback (Stich et al.'s memory variant).
#[derive(Debug, Clone)]
pub struct TopK {
    ratio: f64,
    /// Pooled selection scratch: sized on the first compress, reused (no
    /// reallocation) on every later same-size call.
    scratch: Vec<u32>,
    /// The gathered merge's sparse-stream fold.
    fold: SparseFold,
}

impl TopK {
    /// Creates Top-k with a sparsity ratio in `(0, 1]` (paper default 0.01).
    ///
    /// # Panics
    ///
    /// Panics if the ratio is outside `(0, 1]`.
    pub fn new(ratio: f64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0,1]");
        TopK {
            ratio,
            scratch: Vec::new(),
            fold: SparseFold::default(),
        }
    }

    /// The configured sparsity ratio.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }
}

impl Compressor for TopK {
    fn name(&self) -> String {
        format!("Topk({})", self.ratio)
    }

    fn compress(&mut self, tensor: &Tensor, _name: &str) -> (Vec<Payload>, Context) {
        let k = ratio_to_k(self.ratio, tensor.len());
        let indices = top_k_indices_with(tensor.as_slice(), k, &mut self.scratch);
        let values = gather(tensor, &indices);
        (
            sparse_payloads(values, indices),
            Context::shape_only(tensor.shape().clone()),
        )
    }

    fn decompress(&mut self, payloads: &[Payload], ctx: &Context) -> Tensor {
        sparse_decompress(payloads, ctx)
    }

    /// Scatter-adds straight from the value and index views.
    fn fold_gathered(
        &mut self,
        payloads: PayloadList<'_>,
        ctx: &Context,
        acc: &mut Vec<f32>,
        fold: Fold,
    ) {
        let (values, indices) = (payloads.get(0), payloads.get(1));
        self.fold.fold(values, indices, ctx.shape.len(), acc, fold);
    }

    fn check_gathered(&self, payloads: PayloadList<'_>, ctx: &Context) -> Result<(), PayloadError> {
        check_sparse(payloads, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::*;

    #[test]
    fn keeps_exactly_the_largest_magnitudes() {
        let mut c = TopK::new(0.2);
        // Figure 4 of the paper (15 elements, 20% -> k=3).
        let g = Tensor::from_vec(vec![
            -0.1, 1.2, 3.0, 0.0, -3.5, 4.9, 0.88, 0.0, 0.0, -0.7, 1.0, 0.0, 9.0, -0.3, 0.2,
        ]);
        let (out, payloads, _) = roundtrip(&mut c, &g);
        assert_eq!(payloads[1].as_u32(), &[4, 5, 12]);
        assert_eq!(payloads[0].as_f32(), &[-3.5, 4.9, 9.0]);
        assert_eq!(out.norm0(), 3);
        assert_eq!(out[12], 9.0);
    }

    #[test]
    fn volume_is_8_bytes_per_kept_element() {
        let mut c = TopK::new(0.01);
        let g = gradient(10_000, 1);
        let (_, payloads, ctx) = roundtrip(&mut c, &g);
        let bytes: usize = payloads.iter().map(|p| p.encoded_bytes()).sum();
        assert_eq!(bytes, 100 * 8);
        assert_eq!(ctx.meta_bytes(), 0);
    }

    #[test]
    fn error_feedback_recovers_dropped_mass() {
        use grace_core::{Memory, ResidualMemory};
        let mut c = TopK::new(0.25);
        let mut mem = ResidualMemory::new();
        let g = Tensor::from_vec(vec![1.0, 0.8, 0.6, 0.4]);
        // Iter 1: keeps 1.0, residual holds the rest.
        let comp = mem.compensate("w", &g);
        let (p, ctx) = c.compress(&comp, "w");
        let dec = c.decompress(&p, &ctx);
        mem.update("w", &comp, &dec);
        assert_eq!(dec.norm0(), 1);
        // Iter 2: 0.8 has accumulated to 1.6 and now wins.
        let comp2 = mem.compensate("w", &g);
        let (p2, ctx2) = c.compress(&comp2, "w");
        let dec2 = c.decompress(&p2, &ctx2);
        assert_eq!(dec2[1], 1.6, "second element should surface via EF");
    }

    #[test]
    fn full_ratio_is_lossless() {
        let mut c = TopK::new(1.0);
        let g = gradient(64, 2);
        let (out, _, _) = roundtrip(&mut c, &g);
        assert_eq!(out.as_slice(), g.as_slice());
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn rejects_zero_ratio() {
        let _ = TopK::new(0.0);
    }
}
