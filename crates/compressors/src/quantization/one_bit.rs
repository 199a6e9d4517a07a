//! 1-bit SGD (Seide et al., INTERSPEECH'14).

use grace_core::{Compressor, Context, Payload};
use grace_tensor::pack::bitmap;
use grace_tensor::Tensor;

/// 1-bit SGD: elements below a threshold τ (default 0) quantize to '0', the
/// rest to '1'; decoding maps '0'/'1' to the mean of the negative /
/// non-negative values of the local gradient, which travel as context
/// scalars. Seide et al. introduced the memory mechanism
/// `m_k = g_k − Q⁻¹(g̃_k)` that the framework's
/// [`grace_core::ResidualMemory`] supplies.
#[derive(Debug, Clone)]
pub struct OneBit {
    tau: f32,
}

impl OneBit {
    /// Creates 1-bit SGD with the default threshold τ = 0.
    pub fn new() -> Self {
        Self::with_threshold(0.0)
    }

    /// Creates 1-bit SGD with an explicit threshold.
    ///
    /// # Panics
    ///
    /// Panics if τ is not finite.
    pub fn with_threshold(tau: f32) -> Self {
        assert!(tau.is_finite(), "threshold must be finite");
        OneBit { tau }
    }
}

impl Default for OneBit {
    fn default() -> Self {
        Self::new()
    }
}

impl Compressor for OneBit {
    fn name(&self) -> String {
        "1-bit SGD".to_string()
    }

    fn compress(&mut self, tensor: &Tensor, _name: &str) -> (Vec<Payload>, Context) {
        let mut lo_sum = 0.0f64;
        let mut lo_n = 0usize;
        let mut hi_sum = 0.0f64;
        let mut hi_n = 0usize;
        let data = bitmap(tensor.as_slice(), |v| {
            if v < self.tau {
                lo_sum += f64::from(v);
                lo_n += 1;
                false
            } else {
                hi_sum += f64::from(v);
                hi_n += 1;
                true
            }
        });
        let lo_mean = if lo_n > 0 {
            (lo_sum / lo_n as f64) as f32
        } else {
            0.0
        };
        let hi_mean = if hi_n > 0 {
            (hi_sum / hi_n as f64) as f32
        } else {
            0.0
        };
        (
            vec![Payload::Packed {
                data,
                bits: 1,
                count: tensor.len() as u32,
            }],
            Context::with_meta(tensor.shape().clone(), vec![lo_mean, hi_mean]),
        )
    }

    fn decompress(&mut self, payloads: &[Payload], ctx: &Context) -> Tensor {
        let (lo, hi) = (ctx.meta[0], ctx.meta[1]);
        let (data, count) = match &payloads[0] {
            Payload::Packed { data, count, .. } => (data, *count as usize),
            other => panic!("expected packed bits, got {other:?}"),
        };
        let values: Vec<f32> = (0..count)
            .map(|i| {
                if (data[i / 8] >> (i % 8)) & 1 != 0 {
                    hi
                } else {
                    lo
                }
            })
            .collect();
        Tensor::new(values, ctx.shape.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::*;

    #[test]
    fn decodes_to_group_means() {
        let mut c = OneBit::new();
        let g = Tensor::from_vec(vec![-2.0, -1.0, 1.0, 3.0]);
        let (out, payloads, ctx) = roundtrip(&mut c, &g);
        assert_eq!(ctx.meta, vec![-1.5, 2.0]);
        assert_eq!(out.as_slice(), &[-1.5, -1.5, 2.0, 2.0]);
        assert_eq!(payloads[0].encoded_bytes(), 1);
    }

    #[test]
    fn preserves_tensor_sum() {
        // Group-mean decoding preserves the total mass exactly.
        let mut c = OneBit::new();
        let g = gradient(333, 4);
        let (out, _, _) = roundtrip(&mut c, &g);
        assert!(
            (out.sum() - g.sum()).abs() < 1e-3,
            "{} vs {}",
            out.sum(),
            g.sum()
        );
    }

    #[test]
    fn custom_threshold_shifts_the_split() {
        let mut c = OneBit::with_threshold(2.0);
        let g = Tensor::from_vec(vec![1.0, 3.0]);
        let (out, _, _) = roundtrip(&mut c, &g);
        // 1.0 < τ goes to the low group even though it is positive.
        assert_eq!(out.as_slice(), &[1.0, 3.0]);
    }

    #[test]
    fn all_positive_tensor_has_empty_low_group() {
        let mut c = OneBit::new();
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0]);
        let (out, _, ctx) = roundtrip(&mut c, &g);
        assert_eq!(ctx.meta[0], 0.0);
        assert_eq!(out.as_slice(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn works_under_error_feedback() {
        use grace_core::{Memory, ResidualMemory};
        let mut c = OneBit::new();
        let mut mem = ResidualMemory::new();
        let g = gradient(128, 9);
        let mut last_residual = f32::INFINITY;
        for _ in 0..3 {
            let comp = mem.compensate("w", &g);
            let (p, ctx) = c.compress(&comp, "w");
            let dec = c.decompress(&p, &ctx);
            mem.update("w", &comp, &dec);
            last_residual = mem.residual("w").unwrap().norm2();
        }
        assert!(last_residual.is_finite());
        assert!(last_residual < 3.0 * g.norm2());
    }
}
