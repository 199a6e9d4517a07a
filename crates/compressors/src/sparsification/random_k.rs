//! Random-k sparsification (Stich et al., NeurIPS'18).

use super::{check_sparse, ratio_to_k, sparse_decompress, sparse_payloads, SparseFold};
use grace_core::{Compressor, Context, Payload, PayloadError, PayloadList};
use grace_tensor::rng::substream;
use grace_tensor::select::{gather, random_k_indices};
use grace_tensor::simd::Fold;
use grace_tensor::Tensor;
use rand::rngs::StdRng;

/// Random-k: transmits `k = ⌈ratio·d⌉` uniformly random elements. Biased by
/// design; multiplying by `d/k` makes it unbiased (off by default, matching
/// the paper's biased-with-EF configuration).
///
/// The index sampling is the dominant compute cost on large tensors — the
/// `tf.random.shuffle`-on-CPU pathology of the paper's Fig. 8 — and is
/// charged to the simulated clock like every other cost.
#[derive(Debug)]
pub struct RandomK {
    ratio: f64,
    unbiased: bool,
    rng: StdRng,
    /// The gathered merge's sparse-stream fold.
    fold: SparseFold,
}

impl RandomK {
    /// Creates biased Random-k with a sparsity ratio in `(0, 1]` (paper
    /// default 0.01) and an RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if the ratio is outside `(0, 1]`.
    pub fn new(ratio: f64, seed: u64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0,1]");
        RandomK {
            ratio,
            unbiased: false,
            rng: substream(seed, 0xa2d0),
            fold: SparseFold::default(),
        }
    }

    /// Switches to the unbiased variant (values scaled by `d/k`).
    pub fn unbiased(mut self) -> Self {
        self.unbiased = true;
        self
    }

    /// The configured sparsity ratio.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }
}

impl Compressor for RandomK {
    fn name(&self) -> String {
        format!("Randk({})", self.ratio)
    }

    fn compress(&mut self, tensor: &Tensor, _name: &str) -> (Vec<Payload>, Context) {
        let d = tensor.len();
        let k = ratio_to_k(self.ratio, d);
        let indices = random_k_indices(&mut self.rng, d, k);
        let mut values = gather(tensor, &indices);
        if self.unbiased {
            let scale = d as f32 / k as f32;
            values.iter_mut().for_each(|v| *v *= scale);
        }
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
    fn keeps_k_values_from_the_input() {
        let mut c = RandomK::new(0.1, 7);
        let g = gradient(500, 1);
        let (out, payloads, _) = roundtrip(&mut c, &g);
        assert_eq!(payloads[0].as_f32().len(), 50);
        assert!(out.norm0() <= 50);
        // Every surviving value matches the original at its index.
        for (&v, &i) in payloads[0].as_f32().iter().zip(payloads[1].as_u32()) {
            assert_eq!(v, g[i as usize]);
        }
    }

    #[test]
    fn selection_changes_between_calls() {
        let mut c = RandomK::new(0.05, 8);
        let g = gradient(400, 2);
        let (p1, _) = c.compress(&g, "w");
        let (p2, _) = c.compress(&g, "w");
        assert_ne!(
            p1[1].as_u32(),
            p2[1].as_u32(),
            "indices should re-randomize"
        );
    }

    #[test]
    fn unbiased_variant_is_unbiased() {
        let mut c = RandomK::new(0.25, 9).unbiased();
        let g = gradient(64, 3);
        assert_unbiased(&mut c, &g, 4000, 0.1);
    }

    #[test]
    fn biased_variant_underestimates() {
        let mut c = RandomK::new(0.25, 10);
        let g = Tensor::from_vec(vec![1.0; 64]);
        let mut acc = g.zeros_like();
        for _ in 0..500 {
            let (p, ctx) = c.compress(&g, "w");
            acc.add_assign(&c.decompress(&p, &ctx));
        }
        acc.scale(1.0 / 500.0);
        let mean = acc.mean();
        assert!(
            (mean - 0.25).abs() < 0.05,
            "biased mean should be ≈ ratio, got {mean}"
        );
    }

    #[test]
    fn seeded_runs_reproduce() {
        let g = gradient(128, 4);
        let mut a = RandomK::new(0.1, 42);
        let mut b = RandomK::new(0.1, 42);
        let (pa, _) = a.compress(&g, "w");
        let (pb, _) = b.compress(&g, "w");
        assert_eq!(pa, pb);
    }
}
