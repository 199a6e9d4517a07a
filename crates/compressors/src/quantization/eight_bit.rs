//! 8-bit quantization (Dettmers, ICLR'16).

use grace_core::{
    CommStrategy, Compressor, Context, FoldScratch, HomomorphicAggregate, Payload, PayloadList,
};
use grace_tensor::{simd, Tensor};

/// Number of magnitude code points (7 bits; the 8th bit is the sign).
const MAGNITUDES: usize = 128;

/// 8-bit quantization: each `float32` maps to 1 sign bit + a 7-bit index
/// into a logarithmic code-book of normalized magnitudes (the paper describes
/// 1 sign, 3 exponent and 4 mantissa bits — exactly a 7-bit log-spaced
/// magnitude grid).
///
/// The gradient is normalized by `‖g‖∞` (shipped in the context); decoding
/// looks the magnitude up and restores sign and scale. Finding the nearest
/// code-word is a binary search per element — the `find_bins` cost the
/// paper's Fig. 8 calls out.
#[derive(Debug, Clone)]
pub struct EightBit {
    table: Vec<f32>,
    /// Pooled code buffer: sized by the first compress/decompress, reused
    /// (never reallocated) on every later same-size call.
    codes: Vec<u32>,
}

impl EightBit {
    /// Creates the quantizer with the standard dynamic code-book.
    pub fn new() -> Self {
        // Code-book: 0, then log-spaced values 2^-7 * (1 + m/16) * 2^e for
        // e in 0..7, m in 0..16 — 1 + 7*16 = 113 values, padded to 128 by
        // subdividing the top octave. Monotone increasing, max = 1.0.
        let mut table = vec![0.0f32];
        for e in 0..7 {
            for m in 0..16 {
                let v = 2.0f32.powi(e - 7) * (1.0 + m as f32 / 16.0);
                table.push(v.min(1.0));
            }
        }
        // Fill the remainder with a fine grid in the top octave (dynamic
        // exponent range, per Dettmers' dynamic scheme).
        while table.len() < MAGNITUDES {
            let k = table.len() - 113;
            table.push(0.5 + (k as f32 + 1.0) / 32.0);
        }
        table.truncate(MAGNITUDES);
        table.sort_by(|a, b| a.partial_cmp(b).expect("finite table"));
        table.dedup();
        while table.len() < MAGNITUDES {
            let last = *table.last().expect("non-empty");
            table.push((last + 1.0) / 2.0);
        }
        EightBit {
            table,
            codes: Vec::new(),
        }
    }

    /// Reference encode for one normalized magnitude — the semantics the
    /// vectorized [`simd::quantize_sign_mag`] kernel must reproduce (kept
    /// as the oracle the tests compare against).
    #[cfg(test)]
    fn nearest_code(&self, x: f32) -> u32 {
        // Binary search for the nearest code-word (the find_bins operation).
        let idx = self.table.partition_point(|v| *v < x);
        if idx == 0 {
            0
        } else if idx >= self.table.len() {
            (self.table.len() - 1) as u32
        } else {
            let lo = self.table[idx - 1];
            let hi = self.table[idx];
            if (x - lo) <= (hi - x) {
                (idx - 1) as u32
            } else {
                idx as u32
            }
        }
    }

    /// Reference decode expression — the semantics `decompress` and the
    /// homomorphic fold share via [`simd::dequant_sign_mag`], kept as the
    /// oracle the tests compare against. Note the `-1.0 * 0.0 * scale` case
    /// decodes to `-0.0` — the fold must *assign* worker 0's values, never
    /// add them onto a zeroed accumulator.
    #[cfg(test)]
    fn decode_code(&self, code: u32, scale: f32) -> f32 {
        let sign = if code >> 7 == 1 { -1.0 } else { 1.0 };
        sign * self.table[(code & 0x7F) as usize] * scale
    }
}

impl Default for EightBit {
    fn default() -> Self {
        Self::new()
    }
}

impl Compressor for EightBit {
    fn name(&self) -> String {
        "8-bit".to_string()
    }

    fn strategy(&self) -> CommStrategy {
        CommStrategy::Allgather
    }

    fn compress(&mut self, tensor: &Tensor, _name: &str) -> (Vec<Payload>, Context) {
        let scale = tensor.norm_inf();
        let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
        let xs = tensor.as_slice();
        self.codes.clear();
        self.codes.resize(xs.len(), 0);
        simd::quantize_sign_mag(&self.table, xs, inv, &mut self.codes);
        (
            vec![Payload::packed(&self.codes, 8)],
            Context::with_meta(tensor.shape().clone(), vec![scale]),
        )
    }

    fn decompress(&mut self, payloads: &[Payload], ctx: &Context) -> Tensor {
        let scale = ctx.meta[0];
        payloads[0].unpack_into(&mut self.codes);
        let mut data = vec![0.0f32; self.codes.len()];
        simd::dequant_sign_mag(&self.table, &self.codes, scale, &mut data);
        Tensor::new(data, ctx.shape.clone())
    }

    fn homomorphic(&mut self) -> Option<&mut dyn HomomorphicAggregate> {
        Some(self)
    }
}

impl HomomorphicAggregate for EightBit {
    fn fold_encoded(
        &mut self,
        payloads: PayloadList<'_>,
        ctx: &Context,
        acc: &mut [f32],
        first: bool,
        scratch: &mut FoldScratch,
    ) {
        let scale = ctx.meta[0];
        payloads.get(0).unpack_into(&mut scratch.codes);
        assert_eq!(scratch.codes.len(), acc.len(), "code count mismatch");
        if first {
            simd::dequant_sign_mag(&self.table, &scratch.codes, scale, acc);
        } else {
            simd::dequant_sign_mag_add(&self.table, &scratch.codes, scale, acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::*;

    #[test]
    fn table_is_monotone_with_128_entries() {
        let q = EightBit::new();
        assert_eq!(q.table.len(), MAGNITUDES);
        assert!(q.table.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(q.table[0], 0.0);
        assert!(*q.table.last().unwrap() <= 1.0);
    }

    #[test]
    fn payload_is_one_byte_per_element() {
        let mut q = EightBit::new();
        let g = gradient(1000, 1);
        let (_, payloads, ctx) = roundtrip(&mut q, &g);
        assert_eq!(payloads[0].encoded_bytes(), 1000);
        assert_eq!(ctx.meta_bytes(), 4); // ‖g‖∞
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut q = EightBit::new();
        let g = gradient(500, 2);
        let (out, _, _) = roundtrip(&mut q, &g);
        let scale = g.norm_inf();
        for i in 0..g.len() {
            let err = (out[i] - g[i]).abs();
            // Worst case: half a code-book step at the value's octave, plus
            // the floor of the smallest code-word.
            let bound = (g[i].abs() / 16.0).max(scale * 0.01) + 1e-7;
            assert!(
                err <= bound,
                "elem {i}: {} vs {} (bound {bound})",
                out[i],
                g[i]
            );
        }
    }

    #[test]
    fn signs_are_preserved() {
        let mut q = EightBit::new();
        let g = Tensor::from_vec(vec![-1.0, 1.0, -0.5, 0.25]);
        let (out, _, _) = roundtrip(&mut q, &g);
        for i in 0..4 {
            assert_eq!(out[i].signum(), g[i].signum(), "sign flipped at {i}");
        }
    }

    #[test]
    fn zero_tensor_roundtrips_to_zero() {
        let mut q = EightBit::new();
        let g = Tensor::from_vec(vec![0.0; 16]);
        let (out, _, _) = roundtrip(&mut q, &g);
        assert_eq!(out.norm_inf(), 0.0);
    }

    #[test]
    fn vectorized_codec_matches_reference_roundtrip() {
        let mut q = EightBit::new();
        let g = gradient(777, 5);
        let scale = g.norm_inf();
        let inv = 1.0 / scale;
        let (payloads, ctx) = q.compress(&g, "g");
        let codes = payloads[0].unpack();
        for (i, (&v, &code)) in g.as_slice().iter().zip(&codes).enumerate() {
            let want = (u32::from(v < 0.0) << 7) | q.nearest_code(v.abs() * inv);
            assert_eq!(code, want, "encode diverged at {i}");
        }
        let out = q.decompress(&payloads, &ctx);
        for (i, (&d, &code)) in out.as_slice().iter().zip(&codes).enumerate() {
            assert_eq!(
                d.to_bits(),
                q.decode_code(code, scale).to_bits(),
                "decode diverged at {i}"
            );
        }
    }

    #[test]
    fn deterministic() {
        let mut q = EightBit::new();
        let g = gradient(100, 3);
        let (a, _, _) = roundtrip(&mut q, &g);
        let (b, _, _) = roundtrip(&mut q, &g);
        assert_eq!(a.as_slice(), b.as_slice());
    }
}
