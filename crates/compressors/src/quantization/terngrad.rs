//! TernGrad (Wen et al., NeurIPS'17).

use super::sign::check_codes;
use grace_core::{Compressor, Context, Payload, PayloadError, PayloadList, PayloadView};
use grace_tensor::pack::packed_len;
use grace_tensor::rng::substream;
use grace_tensor::simd::Fold;
use grace_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// TernGrad: ternary gradients `{−1, 0, +1}` scaled by `‖g‖∞`. Each element
/// activates with probability `|g[i]|/‖g‖∞` (unbiased), keeping its sign:
/// `g̃ = ‖g‖∞ · sign(g) ⊙ b`, `P(b[i]=1) = |g[i]|/‖g‖∞`.
///
/// Elements are packed at 2 bits each (codes 0 = zero, 1 = +1, 2 = −1).
#[derive(Debug)]
pub struct TernGrad {
    rng: StdRng,
}

impl TernGrad {
    /// Creates the compressor with an RNG seed for the Bernoulli mask.
    pub fn new(seed: u64) -> Self {
        TernGrad {
            rng: substream(seed, 0x7e6d),
        }
    }
}

impl Compressor for TernGrad {
    fn name(&self) -> String {
        "TernGrad".to_string()
    }

    fn compress(&mut self, tensor: &Tensor, _name: &str) -> (Vec<Payload>, Context) {
        let scale = tensor.norm_inf();
        let count = tensor.len();
        // Each code straight into its 2-bit slot, the first in a byte's low
        // bits: no code buffer the gradient's size.
        let mut data = vec![0u8; packed_len(count, 2)];
        if scale != 0.0 {
            for (i, &v) in tensor.as_slice().iter().enumerate() {
                if self.rng.gen::<f32>() < v.abs() / scale {
                    let code = if v < 0.0 { 2 } else { 1 };
                    data[i / 4] |= code << (2 * (i % 4));
                }
            }
        }
        let codes = Payload::Packed {
            data,
            bits: 2,
            count: count as u32,
        };
        (
            vec![codes],
            Context::with_meta(tensor.shape().clone(), vec![scale]),
        )
    }

    fn decompress(&mut self, payloads: &[Payload], ctx: &Context) -> Tensor {
        let mut out = Vec::new();
        self.fold_gathered(payloads.into(), ctx, &mut out, Fold::Assign);
        Tensor::new(out, ctx.shape.clone())
    }

    /// Decodes the 2-bit codes (0 → 0, 1 → `scale`, 2 → `−scale`) straight
    /// into the merge accumulator.
    fn fold_gathered(
        &mut self,
        payloads: PayloadList<'_>,
        ctx: &Context,
        acc: &mut Vec<f32>,
        fold: Fold,
    ) {
        let PayloadView::Packed { data, .. } = payloads.get(0) else {
            panic!("expected packed ternary codes, got {:?}", payloads.get(0));
        };
        let (scale, count) = (ctx.meta[0], ctx.shape.len());
        let values = (0..count).map(|i| match (data[i / 4] >> (2 * (i % 4))) & 3 {
            1 => scale,
            2 => -scale,
            _ => 0.0,
        });
        fold.apply_iter(acc, count, values);
    }

    fn check_gathered(&self, payloads: PayloadList<'_>, ctx: &Context) -> Result<(), PayloadError> {
        check_codes(payloads, ctx, 2, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::*;

    #[test]
    fn outputs_are_ternary() {
        let mut c = TernGrad::new(1);
        let g = gradient(400, 1);
        let scale = g.norm_inf();
        let (out, _, _) = roundtrip(&mut c, &g);
        for i in 0..out.len() {
            assert!(
                out[i] == 0.0 || (out[i].abs() - scale).abs() < 1e-6,
                "non-ternary value {}",
                out[i]
            );
        }
    }

    #[test]
    fn terngrad_is_unbiased() {
        let mut c = TernGrad::new(2);
        let g = gradient(64, 3);
        assert_unbiased(&mut c, &g, 4000, 0.08);
    }

    #[test]
    fn largest_element_always_survives() {
        let mut c = TernGrad::new(3);
        let g = Tensor::from_vec(vec![0.1, -0.9, 0.3]);
        for _ in 0..30 {
            let (p, ctx) = c.compress(&g, "w");
            let out = c.decompress(&p, &ctx);
            assert_eq!(out[1], -0.9, "max-magnitude element has p=1");
        }
    }

    #[test]
    fn payload_is_two_bits_per_element() {
        let mut c = TernGrad::new(4);
        let g = gradient(800, 5);
        let (_, payloads, ctx) = roundtrip(&mut c, &g);
        assert_eq!(payloads[0].encoded_bytes(), 200); // 2 bits × 800
        assert_eq!(ctx.meta_bytes(), 4);
    }

    #[test]
    fn zero_tensor_roundtrips() {
        let mut c = TernGrad::new(5);
        let g = Tensor::from_vec(vec![0.0; 8]);
        let (out, _, _) = roundtrip(&mut c, &g);
        assert_eq!(out.norm_inf(), 0.0);
    }
}
