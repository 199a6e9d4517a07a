//! QSGD (Alistarh et al., NeurIPS'17).

use grace_core::{Compressor, Context, Payload, PayloadError, PayloadList, PayloadView};
use grace_tensor::coding::{dequantize_levels_fold, level_bits, quantize_levels};
use grace_tensor::pack::packed_len;
use grace_tensor::rng::substream;
use grace_tensor::simd::Fold;
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

    /// The level streams and norm of one contribution to a tensor of
    /// `ctx`'s shape.
    fn contribution<'a>(
        &self,
        payloads: PayloadList<'a>,
        ctx: &Context,
    ) -> Result<(LevelStreams<'a>, f32), PayloadError> {
        match (payloads.len(), &ctx.meta[..]) {
            (2, &[norm]) => {
                let count = ctx.shape.len();
                let streams = LevelStreams::of(payloads.get(0), payloads.get(1), self.s, count)?;
                Ok((streams, norm))
            }
            (n, meta) => Err(PayloadError::Malformed(format!(
                "QSGD contribution of {n} payloads and {} scalars, expected 2 and 1",
                meta.len()
            ))),
        }
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

/// A sign bitmap and a level stream, checked against the elements they
/// decode into.
pub(crate) struct LevelStreams<'a> {
    signs: &'a [u8],
    levels: &'a [u8],
    bits: u32,
    count: usize,
}

impl<'a> LevelStreams<'a> {
    /// Checks a `[signs, levels]` pair: both `Packed`, one sign bit and
    /// `level_bits(s)` level bits per element, `count` codes in each, and
    /// exactly the bytes those take.
    ///
    /// # Errors
    ///
    /// [`PayloadError::Malformed`] for any other pair.
    pub(crate) fn of(
        signs: PayloadView<'a>,
        levels: PayloadView<'a>,
        s: u32,
        count: usize,
    ) -> Result<Self, PayloadError> {
        let bits = level_bits(s);
        match (signs, levels) {
            (
                PayloadView::Packed {
                    data: signs,
                    bits: 1,
                    count: sign_count,
                },
                PayloadView::Packed {
                    data: levels,
                    bits: level_width,
                    count: level_count,
                },
            ) if level_width == bits
                && [sign_count, level_count].map(|n| n as usize) == [count; 2]
                && signs.len() == packed_len(count, 1)
                && levels.len() == packed_len(count, bits) =>
            {
                Ok(LevelStreams {
                    signs,
                    levels,
                    bits,
                    count,
                })
            }
            _ => Err(PayloadError::Malformed(format!(
                "expected a 1-bit sign bitmap and a {bits}-bit level stream of {count} codes each"
            ))),
        }
    }

    /// Decodes `±norm · level / s` into `out` as `fold` says.
    pub(crate) fn fold_into(&self, s: u32, norm: f32, out: &mut Vec<f32>, fold: Fold) {
        let (signs, levels, bits, count) = (self.signs, self.levels, self.bits, self.count);
        dequantize_levels_fold(signs, levels, bits, s, norm, count, out, fold);
    }
}

/// Decodes a `[signs, levels]` payload pair produced by
/// [`quantize_to_payloads`].
///
/// # Panics
///
/// Panics unless [`LevelStreams::of`] accepts the pair at the sign
/// bitmap's count.
pub(crate) fn dequantize_payloads(
    signs: &Payload,
    levels: &Payload,
    s: u32,
    norm: f32,
) -> Vec<f32> {
    let count = match signs {
        Payload::Packed { count, .. } => *count as usize,
        _ => 0,
    };
    let (signs, levels) = (PayloadView::of(signs), PayloadView::of(levels));
    let streams = LevelStreams::of(signs, levels, s, count).unwrap_or_else(|e| panic!("{e}"));
    let mut out = Vec::new();
    streams.fold_into(s, norm, &mut out, Fold::Assign);
    out
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
        let mut out = Vec::new();
        self.fold_gathered(payloads.into(), ctx, &mut out, Fold::Assign);
        Tensor::new(out, ctx.shape.clone())
    }

    /// Decodes the level streams straight into the accumulator.
    fn fold_gathered(
        &mut self,
        payloads: PayloadList<'_>,
        ctx: &Context,
        acc: &mut Vec<f32>,
        fold: Fold,
    ) {
        let (streams, norm) = self
            .contribution(payloads, ctx)
            .unwrap_or_else(|e| panic!("{e}"));
        streams.fold_into(self.s, norm, acc, fold);
    }

    fn check_gathered(&self, payloads: PayloadList<'_>, ctx: &Context) -> Result<(), PayloadError> {
        self.contribution(payloads, ctx).map(drop)
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

    /// A frame that passes its CRC is still bytes a peer wrote: every view
    /// list the level decode cannot take is a typed rejection, before any
    /// element folds, and a sound one folds to `decompress`'s bits.
    #[test]
    fn malformed_views_are_rejected_before_any_element_folds() {
        let mut c = Qsgd::new(64, 5);
        let g = gradient(100, 4);
        let (payloads, ctx) = c.compress(&g, "w");
        let views: Vec<PayloadView<'_>> = payloads.iter().map(PayloadView::of).collect();
        c.check_gathered(PayloadList::Views(&views), &ctx).unwrap();
        let mut acc = Vec::new();
        c.fold_gathered(PayloadList::Views(&views), &ctx, &mut acc, Fold::Assign);
        let want = c.decompress(&payloads, &ctx);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&acc), bits(want.as_slice()));

        let (signs, levels) = (views[0], views[1]);
        let packed = |bits: u32, count: usize, short: usize| PayloadView::Packed {
            data: &[0; 200][..packed_len(count, bits) - short],
            bits,
            count: count as u32,
        };
        let malformed: [(&str, Vec<PayloadView<'_>>); 8] = [
            ("one view", vec![signs]),
            ("three views", vec![signs, levels, levels]),
            ("f32 signs", vec![PayloadView::F32(&[0.0; 100]), levels]),
            ("bytes levels", vec![signs, PayloadView::Bytes(&[0; 88])]),
            ("2-bit signs", vec![packed(2, 100, 0), levels]),
            ("6-bit levels", vec![signs, packed(6, 100, 0)]),
            ("99 codes", vec![packed(1, 99, 0), packed(7, 99, 0)]),
            ("short stream", vec![signs, packed(7, 100, 1)]),
        ];
        for (what, views) in &malformed {
            assert!(
                matches!(
                    c.check_gathered(PayloadList::Views(views), &ctx),
                    Err(PayloadError::Malformed(_))
                ),
                "{what}"
            );
        }
        for meta in [vec![], vec![1.0, 2.0]] {
            let ctx = Context::with_meta(ctx.shape.clone(), meta);
            let list = PayloadList::Views(&views);
            assert!(c.check_gathered(list, &ctx).is_err(), "{:?}", ctx.meta);
        }
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
