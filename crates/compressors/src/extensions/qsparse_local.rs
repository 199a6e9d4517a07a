//! Qsparse-local-SGD (Basu et al., NeurIPS'19) — the compression operator.

use crate::quantization::qsgd::{dequantize_payloads, quantize_to_payloads, LevelStreams};
use crate::sparsification::{checked_indices, SparseFold};
use grace_core::{Compressor, Context, Payload, PayloadError, PayloadList, PayloadView};
use grace_tensor::rng::substream;
use grace_tensor::select::{gather, top_k_indices_with};
use grace_tensor::simd::Fold;
use grace_tensor::Tensor;
use rand::rngs::StdRng;

/// The Qsparse composition: **quantization ∘ sparsification** — Top-k
/// selection followed by QSGD-style randomized quantization of the selected
/// values (§III-C "combine quantization with Top-k or Random-k
/// sparsification"). Error feedback absorbs both error sources at once.
///
/// Payloads: selected indices (4 B each) + per-value sign/level codes
/// (1 + ⌈log₂(s+1)⌉ bits) + the ℓ₂ norm of the selected values.
///
/// The "local" part of Qsparse-local-SGD (communicating every H steps) is
/// an orthogonal trainer-schedule feature; this type implements the
/// compression operator the method is built on.
#[derive(Debug)]
pub struct QsparseLocal {
    ratio: f64,
    s: u32,
    rng: StdRng,
    /// Pooled selection scratch, reused across same-size compress calls.
    scratch: Vec<u32>,
    /// The gathered merge's sparse-stream fold.
    fold: SparseFold,
}

impl QsparseLocal {
    /// Creates the operator with sparsity `ratio` and `s` quantization
    /// levels.
    ///
    /// # Panics
    ///
    /// Panics if the ratio is outside `(0, 1]` or `s == 0`.
    pub fn new(ratio: f64, s: u32, seed: u64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0,1]");
        assert!(s >= 1, "need at least one level");
        QsparseLocal {
            ratio,
            s,
            rng: substream(seed, 0x95a5e),
            scratch: Vec::new(),
            fold: SparseFold::default(),
        }
    }

    /// The sparsity ratio.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }
}

impl Compressor for QsparseLocal {
    fn name(&self) -> String {
        format!("Qsparse({},{})", self.ratio, self.s)
    }

    fn compress(&mut self, tensor: &Tensor, _name: &str) -> (Vec<Payload>, Context) {
        let d = tensor.len();
        let k = ((d as f64 * self.ratio).ceil() as usize).clamp(1, d.max(1));
        let indices = top_k_indices_with(tensor.as_slice(), k, &mut self.scratch);
        let values = gather(tensor, &indices);
        // QSGD over the selected values only.
        let ([signs, levels], norm) = quantize_to_payloads(&values, self.s, &mut self.rng);
        (
            vec![Payload::U32(indices), signs, levels],
            Context::with_meta(tensor.shape().clone(), vec![norm]),
        )
    }

    fn decompress(&mut self, payloads: &[Payload], ctx: &Context) -> Tensor {
        let indices = payloads[0].as_u32();
        let values = dequantize_payloads(&payloads[1], &payloads[2], self.s, ctx.meta[0]);
        let mut out = Tensor::zeros(ctx.shape.clone());
        for (&i, v) in indices.iter().zip(values) {
            out[i as usize] = v;
        }
        out
    }

    /// Decodes the selected values with QSGD's level kernel into the sparse
    /// fold's pooled values, then scatter-adds them at the indices.
    fn fold_gathered(
        &mut self,
        payloads: PayloadList<'_>,
        ctx: &Context,
        acc: &mut Vec<f32>,
        fold: Fold,
    ) {
        let indices = payloads.get(0);
        let count = match indices {
            PayloadView::U32(v) => v.len(),
            other => other.encoded_bytes() / 4,
        };
        let streams = LevelStreams::of(payloads.get(1), payloads.get(2), self.s, count)
            .unwrap_or_else(|e| panic!("{e}"));
        streams.fold_into(self.s, ctx.meta[0], &mut self.fold.values, Fold::Assign);
        self.fold.fold_values(indices, ctx.shape.len(), acc, fold);
    }

    /// Indices inside the tensor, each once, then a sign and a level stream
    /// of one code per index, and the norm.
    fn check_gathered(&self, payloads: PayloadList<'_>, ctx: &Context) -> Result<(), PayloadError> {
        if payloads.len() != 3 || ctx.meta.len() != 1 {
            return Err(PayloadError::Malformed(format!(
                "Qsparse contribution of {} payloads and {} scalars, expected 3 and 1",
                payloads.len(),
                ctx.meta.len()
            )));
        }
        let count = checked_indices(payloads.get(0), ctx.shape.len())?;
        LevelStreams::of(payloads.get(1), payloads.get(2), self.s, count).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::*;

    #[test]
    fn output_is_sparse_and_on_grid() {
        let mut c = QsparseLocal::new(0.1, 4, 1);
        let g = gradient(500, 1);
        let (out, payloads, ctx) = roundtrip(&mut c, &g);
        assert!(out.norm0() <= 50);
        let norm = ctx.meta[0];
        for v in out.as_slice() {
            if *v != 0.0 {
                let scaled = v.abs() / norm * 4.0;
                assert!((scaled - scaled.round()).abs() < 1e-4, "off-grid {v}");
            }
        }
        assert_eq!(payloads[0].as_u32().len(), 50);
    }

    /// Qsparse's frame is an index list and QSGD's two streams at its
    /// length: every view list its decode cannot take is a typed rejection,
    /// and a sound one folds to `decompress`'s bits.
    #[test]
    fn malformed_views_are_rejected_before_any_element_folds() {
        use grace_core::PayloadView;
        use grace_tensor::pack::packed_len;
        use grace_tensor::simd::Fold;
        let mut c = QsparseLocal::new(0.1, 4, 1);
        let g = gradient(100, 2);
        let (payloads, ctx) = c.compress(&g, "w");
        let views: Vec<PayloadView<'_>> = payloads.iter().map(PayloadView::of).collect();
        c.check_gathered(PayloadList::Views(&views), &ctx).unwrap();
        let mut acc = Vec::new();
        c.fold_gathered(PayloadList::Views(&views), &ctx, &mut acc, Fold::Assign);
        let want = c.decompress(&payloads, &ctx);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&acc), bits(want.as_slice()));

        let (indices, signs, levels) = (views[0], views[1], views[2]);
        let packed = |bits: u32, count: usize| PayloadView::Packed {
            data: &[0; 64][..packed_len(count, bits)],
            bits,
            count: count as u32,
        };
        let beyond = [100u32; 10];
        let malformed: [(&str, Vec<PayloadView<'_>>); 7] = [
            ("two views", vec![indices, signs]),
            ("four views", vec![indices, signs, levels, levels]),
            (
                "f32 indices",
                vec![PayloadView::F32(&[0.0; 10]), signs, levels],
            ),
            (
                "index 100 of 100",
                vec![PayloadView::U32(&beyond), signs, levels],
            ),
            ("9 codes for 10", vec![indices, packed(1, 9), packed(3, 9)]),
            ("2-bit levels", vec![indices, signs, packed(2, 10)]),
            (
                "bytes signs",
                vec![indices, PayloadView::Bytes(&[0; 2]), levels],
            ),
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
            assert!(c.check_gathered(PayloadList::Views(&views), &ctx).is_err());
        }
    }

    #[test]
    fn beats_both_parents_on_volume() {
        let g = gradient(10_000, 2);
        let mut qsparse = QsparseLocal::new(0.01, 8, 3);
        let mut topk = crate::TopK::new(0.01);
        let mut qsgd = crate::Qsgd::new(8, 3);
        let bytes =
            |p: &[Payload], c: &Context| grace_core::payload::total_bytes(p) + c.meta_bytes();
        let (pq, cq) = qsparse.compress(&g, "w");
        let (pt, ct) = topk.compress(&g, "w");
        let (pg, cg) = qsgd.compress(&g, "w");
        assert!(bytes(&pq, &cq) < bytes(&pt, &ct), "not below topk");
        assert!(bytes(&pq, &cq) < bytes(&pg, &cg), "not below qsgd");
    }

    #[test]
    fn quantization_is_unbiased_given_selection() {
        // Conditioned on the Top-k selection (deterministic), the value
        // quantization is unbiased: mean over repeats approaches the exact
        // sparse tensor.
        let mut c = QsparseLocal::new(0.5, 4, 5);
        let g = gradient(64, 4);
        let mut exact = crate::TopK::new(0.5);
        let (pe, ce) = exact.compress(&g, "w");
        let target = exact.decompress(&pe, &ce);
        let mut acc = g.zeros_like();
        let reps = 2000;
        for _ in 0..reps {
            let (p, ctx) = c.compress(&g, "w");
            acc.add_assign(&c.decompress(&p, &ctx));
        }
        acc.scale(1.0 / reps as f32);
        let err = acc.sub(&target).norm2() / target.norm2().max(1e-6);
        assert!(err < 0.05, "conditional bias {err}");
    }

    #[test]
    fn works_under_error_feedback() {
        use grace_core::{Memory, ResidualMemory};
        let mut c = QsparseLocal::new(0.25, 8, 6);
        let mut mem = ResidualMemory::new();
        let g = gradient(128, 7);
        for _ in 0..4 {
            let comp = mem.compensate("w", &g);
            let (p, ctx) = c.compress(&comp, "w");
            let dec = c.decompress(&p, &ctx);
            mem.update("w", &comp, &dec);
        }
        let r = mem.residual("w").unwrap().norm2();
        assert!(r.is_finite() && r < 3.0 * g.norm2(), "residual {r}");
    }
}
