//! Deep Gradient Compression (Lin et al., ICLR'18).

use super::{check_sparse, ratio_to_k, sparse_decompress, sparse_payloads, SparseFold};
use grace_core::{Compressor, Context, Payload, PayloadError, PayloadList};
use grace_tensor::rng::substream;
use grace_tensor::select::sampled_abs_threshold;
use grace_tensor::simd::Fold;
use grace_tensor::Tensor;
use rand::rngs::StdRng;
use std::collections::HashMap;

/// DGC: momentum correction + gradient accumulation with top-ratio selection.
///
/// Per tensor, per iteration:
///
/// ```text
/// u ← m·u + g            (momentum correction)
/// v ← v + u              (accumulation — built-in error feedback)
/// mask = |v| ≥ τ         (τ from sampled top-ratio estimation)
/// send v[mask];  v ← v·(1−mask);  u ← u·(1−mask)   (momentum factor masking)
/// ```
///
/// The threshold is estimated from a sample (one pass — the paper's Fig. 8
/// profiling found the multi-round adjustment loop to be ~2× slower).
/// Because the memory is built in, the framework pairs DGC with
/// [`grace_core::NoMemory`].
#[derive(Debug)]
pub struct Dgc {
    ratio: f64,
    momentum: f32,
    sample_size: usize,
    u: HashMap<String, Tensor>,
    v: HashMap<String, Tensor>,
    rng: StdRng,
    /// The gathered merge's sparse-stream fold.
    fold: SparseFold,
}

impl Dgc {
    /// Creates DGC with a sparsity ratio in `(0, 1]` (paper default 0.01),
    /// momentum 0.9 and a sampled-threshold estimator seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the ratio is outside `(0, 1]`.
    pub fn new(ratio: f64, seed: u64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0,1]");
        Dgc {
            ratio,
            momentum: 0.9,
            sample_size: 1000,
            u: HashMap::new(),
            v: HashMap::new(),
            rng: substream(seed, 0xd6c),
            fold: SparseFold::default(),
        }
    }

    /// The configured sparsity ratio.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }
}

impl Compressor for Dgc {
    fn name(&self) -> String {
        format!("DGC({})", self.ratio)
    }

    fn compress(&mut self, tensor: &Tensor, name: &str) -> (Vec<Payload>, Context) {
        let u = self
            .u
            .entry(name.to_string())
            .or_insert_with(|| tensor.zeros_like());
        u.scale(self.momentum);
        u.add_assign(tensor);
        self.v
            .entry(name.to_string())
            .or_insert_with(|| tensor.zeros_like());
        // Borrow juggling: u was just updated; add it into v.
        let u_snapshot = self.u.get(name).expect("just inserted").clone();
        let v = self.v.get_mut(name).expect("just inserted");
        v.add_assign(&u_snapshot);

        let tau = sampled_abs_threshold(&mut self.rng, v.as_slice(), self.ratio, self.sample_size);
        let mut values = Vec::new();
        let mut indices = Vec::new();
        // Cap the selection at 2·k so a bad sampled τ cannot blow up volume.
        let cap = 2 * ratio_to_k(self.ratio, v.len());
        for (i, val) in v.as_slice().iter().enumerate() {
            if val.abs() >= tau && values.len() < cap {
                values.push(*val);
                indices.push(i as u32);
            }
        }
        // Momentum factor masking: clear sent coordinates in both u and v.
        let u = self.u.get_mut(name).expect("present");
        let v = self.v.get_mut(name).expect("present");
        for &i in &indices {
            v[i as usize] = 0.0;
            u[i as usize] = 0.0;
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

    fn supports_error_feedback(&self) -> bool {
        false // accumulation is built in
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::*;

    #[test]
    fn first_iteration_sends_top_elements() {
        let mut c = Dgc::new(0.25, 1);
        let g = Tensor::from_vec(vec![0.1, -5.0, 0.2, 3.0]);
        let (out, _, _) = roundtrip(&mut c, &g);
        // Top-25% of |v| = |g| on the first call: the -5.0 element.
        assert!(out[1] != 0.0, "largest element must be sent");
        assert!(out.norm0() <= 2, "cap at 2k elements");
    }

    #[test]
    fn accumulation_preserves_unsent_mass() {
        let mut c = Dgc::new(0.25, 2);
        let g = Tensor::from_vec(vec![1.0, 0.5, 0.1, 0.05]);
        let mut total_sent = g.zeros_like();
        for _ in 0..12 {
            let (p, ctx) = c.compress(&g, "w");
            total_sent.add_assign(&c.decompress(&p, &ctx));
        }
        // After 12 iterations each coordinate must have been transmitted
        // with cumulative mass close to 12·g (momentum inflates transient
        // values but masking clears state after each send).
        for i in 0..4 {
            assert!(
                total_sent[i] > 0.0,
                "coordinate {i} never sent despite accumulation"
            );
        }
    }

    #[test]
    fn momentum_state_is_per_tensor() {
        let mut c = Dgc::new(1.0, 3);
        let ga = Tensor::from_vec(vec![1.0]);
        let gb = Tensor::from_vec(vec![-1.0]);
        let (pa, ca) = c.compress(&ga, "a");
        let (pb, cb) = c.compress(&gb, "b");
        assert_eq!(c.decompress(&pa, &ca)[0], 1.0);
        assert_eq!(c.decompress(&pb, &cb)[0], -1.0);
    }

    #[test]
    fn volume_respects_cap() {
        let mut c = Dgc::new(0.01, 4);
        let g = gradient(10_000, 5);
        for _ in 0..5 {
            let (p, _) = c.compress(&g, "w");
            assert!(p[0].as_f32().len() <= 200, "cap 2k violated");
        }
    }

    #[test]
    fn built_in_memory_flag() {
        assert!(!Dgc::new(0.01, 0).supports_error_feedback());
    }
}
