//! QSGD (Alistarh et al., NeurIPS'17).

use grace_core::{Compressor, Context, Payload};
use grace_tensor::coding::{dequantize_levels, level_bits, quantize_levels};
use grace_tensor::pack::packed_len;
use grace_tensor::rng::substream;
use grace_tensor::Tensor;
use rand::rngs::StdRng;

/// QSGD: randomized rounding onto `s + 1` code-words `{0, 1/s, …, 1}` of the
/// normalized magnitude `|g[i]|/‖g‖₂` (paper Fig. 3):
///
/// ```text
/// g̃[i] = ‖g‖₂ · sign(g[i]) · (l + Bernoulli(p)) / s,
/// where l = ⌊|g[i]|·s/‖g‖₂⌋ and p = |g[i]|·s/‖g‖₂ − l.
/// ```
///
/// The scheme is unbiased. Each element costs 1 sign bit plus
/// `⌈log₂(s+1)⌉` level bits, all bit-packed.
#[derive(Debug)]
pub struct Qsgd {
    s: u32,
    rng: StdRng,
}

impl Qsgd {
    /// Creates QSGD with `s` quantization levels (the paper's default
    /// configuration is `QSGD(64)`) and an RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `s == 0`.
    pub fn new(s: u32, seed: u64) -> Self {
        assert!(s >= 1, "need at least one level");
        Qsgd {
            s,
            rng: substream(seed, 0x9509d),
        }
    }

    /// The number of levels `s`.
    pub fn levels(&self) -> u32 {
        self.s
    }
}

/// Quantizes `values` with [`quantize_levels`] into freshly allocated
/// payloads: the sign bitmap, the level stream, and the norm for the
/// context.
pub(crate) fn quantize_to_payloads(
    values: &[f32],
    s: u32,
    rng: &mut StdRng,
) -> ([Payload; 2], f32) {
    let bits = level_bits(s);
    let mut signs = vec![0u8; packed_len(values.len(), 1)];
    let mut levels = vec![0u8; packed_len(values.len(), bits)];
    let norm = quantize_levels(values, s, rng, &mut signs, &mut levels);
    let count = values.len() as u32;
    let packed = |data, bits| Payload::Packed { data, bits, count };
    ([packed(signs, 1), packed(levels, bits)], norm)
}

/// Decodes a `[signs, levels]` payload pair produced by
/// [`quantize_to_payloads`] with [`dequantize_levels`].
///
/// # Panics
///
/// Panics unless both payloads are `Packed` with one sign bit and one level
/// per element.
pub(crate) fn dequantize_payloads(
    signs: &Payload,
    levels: &Payload,
    s: u32,
    norm: f32,
) -> Vec<f32> {
    match (signs, levels) {
        (
            Payload::Packed {
                data: signs,
                bits: 1,
                count: sign_count,
            },
            Payload::Packed {
                data: levels,
                bits,
                count,
            },
        ) if sign_count == count => {
            let mut out = Vec::new();
            dequantize_levels(signs, levels, *bits, s, norm, *count as usize, &mut out);
            out
        }
        _ => panic!("expected a packed sign bitmap and a level stream of the same count"),
    }
}

impl Compressor for Qsgd {
    fn name(&self) -> String {
        format!("QSGD({})", self.s)
    }

    fn compress(&mut self, tensor: &Tensor, _name: &str) -> (Vec<Payload>, Context) {
        let (payloads, norm) = quantize_to_payloads(tensor.as_slice(), self.s, &mut self.rng);
        (
            payloads.into(),
            Context::with_meta(tensor.shape().clone(), vec![norm]),
        )
    }

    fn decompress(&mut self, payloads: &[Payload], ctx: &Context) -> Tensor {
        let data = dequantize_payloads(&payloads[0], &payloads[1], self.s, ctx.meta[0]);
        Tensor::new(data, ctx.shape.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::*;

    #[test]
    fn level_bits_formula() {
        assert_eq!(level_bits(1), 1);
        assert_eq!(level_bits(4), 3); // levels 0..=4 need 3 bits
        assert_eq!(level_bits(64), 7);
        assert_eq!(level_bits(255), 8);
    }

    #[test]
    fn quantized_values_lie_on_the_grid() {
        let mut c = Qsgd::new(4, 7);
        let g = gradient(200, 1);
        let norm = g.norm2();
        let (out, _, _) = roundtrip(&mut c, &g);
        for i in 0..out.len() {
            let scaled = out[i].abs() / norm * 4.0;
            assert!(
                (scaled - scaled.round()).abs() < 1e-4,
                "value {} not on grid",
                out[i]
            );
        }
    }

    #[test]
    fn qsgd_is_unbiased() {
        let mut c = Qsgd::new(4, 3);
        let g = gradient(64, 2);
        assert_unbiased(&mut c, &g, 3000, 0.05);
    }

    #[test]
    fn payload_bytes_match_bit_budget() {
        let mut c = Qsgd::new(64, 5);
        let g = gradient(800, 3);
        let (_, payloads, ctx) = roundtrip(&mut c, &g);
        assert_eq!(payloads[0].encoded_bytes(), 100); // 1 bit × 800
        assert_eq!(payloads[1].encoded_bytes(), 700); // 7 bits × 800
        assert_eq!(ctx.meta_bytes(), 4);
    }

    #[test]
    fn zero_tensor_is_fixed_point() {
        let mut c = Qsgd::new(8, 1);
        let g = Tensor::from_vec(vec![0.0; 10]);
        let (out, _, _) = roundtrip(&mut c, &g);
        assert_eq!(out.norm_inf(), 0.0);
    }

    #[test]
    fn paper_example_rounding_probabilities() {
        // Figure 3's mechanism: with s = 4 the first element's normalized
        // magnitude lies in [0, 1/4) and randomized rounding picks 1/4 with
        // probability p = |g₀|·s/‖g‖₂ and 0 otherwise.
        let mut zero_count = 0;
        let mut quarter_count = 0;
        let mut c = Qsgd::new(4, 11);
        let g = Tensor::from_vec(vec![-3.39, 1.78, 10.87, -2.22, 10.9, 1.12, -32.1, 12.5]);
        let norm = g.norm2();
        let expect_p = (3.39 / norm * 4.0) as f64;
        assert!(expect_p < 1.0, "example must sit in the lowest bin");
        for _ in 0..2000 {
            let (p, ctx) = c.compress(&g, "w");
            let out = c.decompress(&p, &ctx);
            let lvl = (out[0].abs() / norm * 4.0).round() as u32;
            if lvl == 0 {
                zero_count += 1;
            } else if lvl == 1 {
                quarter_count += 1;
            }
        }
        let p_quarter = quarter_count as f64 / 2000.0;
        assert!(
            (p_quarter - expect_p).abs() < 0.05,
            "p={p_quarter}, expected {expect_p}"
        );
        assert_eq!(zero_count + quarter_count, 2000);
    }

    #[test]
    fn seeded_runs_reproduce() {
        let g = gradient(128, 9);
        let mut a = Qsgd::new(16, 42);
        let mut b = Qsgd::new(16, 42);
        let (pa, _) = a.compress(&g, "w");
        let (pb, _) = b.compress(&g, "w");
        assert_eq!(pa, pb);
    }
}
