//! Threshold-v sparsification (Dutta et al., AAAI'20).

use super::{check_sparse, sparse_decompress, sparse_payloads, SparseFold};
use grace_core::{Compressor, Context, Payload, PayloadError, PayloadList};
use grace_tensor::select::{gather, threshold_indices};
use grace_tensor::simd::Fold;
use grace_tensor::Tensor;

/// Threshold-v: transmits every element with `|g[i]| ≥ v`. The output size is
/// adaptive (input-dependent) and, as the paper notes, a good `v` is
/// model-specific and hard to pick — too high sends nothing, too low sends
/// everything.
#[derive(Debug, Clone)]
pub struct ThresholdV {
    v: f32,
    /// The gathered merge's sparse-stream fold.
    fold: SparseFold,
}

impl ThresholdV {
    /// Creates the compressor with threshold `v` (paper microbenchmarks use
    /// 0.01).
    ///
    /// # Panics
    ///
    /// Panics if `v` is negative or non-finite.
    pub fn new(v: f32) -> Self {
        assert!(v.is_finite() && v >= 0.0, "threshold must be non-negative");
        ThresholdV {
            v,
            fold: SparseFold::default(),
        }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> f32 {
        self.v
    }
}

impl Compressor for ThresholdV {
    fn name(&self) -> String {
        format!("Thresh({})", self.v)
    }

    fn compress(&mut self, tensor: &Tensor, _name: &str) -> (Vec<Payload>, Context) {
        let indices = threshold_indices(tensor.as_slice(), self.v);
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
    fn keeps_only_above_threshold() {
        let mut c = ThresholdV::new(1.0);
        let g = Tensor::from_vec(vec![0.5, -2.0, 1.0, -0.1, 3.0]);
        let (out, payloads, _) = roundtrip(&mut c, &g);
        assert_eq!(payloads[1].as_u32(), &[1, 2, 4]);
        assert_eq!(out.as_slice(), &[0.0, -2.0, 1.0, 0.0, 3.0]);
    }

    #[test]
    fn output_size_is_adaptive() {
        let mut c = ThresholdV::new(0.1);
        let small = Tensor::from_vec(vec![0.01; 100]);
        let (p_small, _) = c.compress(&small, "w");
        assert_eq!(p_small[0].as_f32().len(), 0);
        let large = Tensor::from_vec(vec![1.0; 100]);
        let (p_large, _) = c.compress(&large, "w");
        assert_eq!(p_large[0].as_f32().len(), 100);
    }

    #[test]
    fn zero_threshold_is_lossless() {
        let mut c = ThresholdV::new(0.0);
        let g = gradient(64, 1);
        let (out, _, _) = roundtrip(&mut c, &g);
        assert_eq!(out.as_slice(), g.as_slice());
    }

    #[test]
    fn error_feedback_eventually_sends_small_values() {
        use grace_core::{Memory, ResidualMemory};
        let mut c = ThresholdV::new(1.0);
        let mut mem = ResidualMemory::new();
        let g = Tensor::from_vec(vec![0.3]);
        let mut sent_at = None;
        for it in 0..6 {
            let comp = mem.compensate("w", &g);
            let (p, ctx) = c.compress(&comp, "w");
            let dec = c.decompress(&p, &ctx);
            mem.update("w", &comp, &dec);
            if dec[0] != 0.0 {
                sent_at = Some(it);
                break;
            }
        }
        // 0.3 accumulates past 1.0 on the fourth iteration.
        assert_eq!(sent_at, Some(3));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_threshold() {
        let _ = ThresholdV::new(-1.0);
    }
}
