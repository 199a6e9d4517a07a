//! The sign family: SignSGD, SIGNUM, EFsignSGD (§III-A).

#[cfg(test)]
use grace_core::CommStrategy;
use grace_core::{Compressor, Context, Payload, PayloadError, PayloadList, PayloadView};
use grace_tensor::pack::{bitmap, packed_len};
use grace_tensor::simd::Fold;
use grace_tensor::Tensor;
use std::collections::HashMap;

/// The sign bitmap (bit set = negative), straight from the gradient.
fn compress_signs(tensor: &Tensor) -> Payload {
    Payload::Packed {
        data: bitmap(tensor.as_slice(), |v| v < 0.0),
        bits: 1,
        count: tensor.len() as u32,
    }
}

/// Decodes a sign bitmap into `±scale` per element.
fn decompress_signs(payloads: &[Payload], scale: f32, ctx: &Context) -> Tensor {
    let mut out = Vec::new();
    fold_signs(payloads.into(), scale, ctx, &mut out, Fold::Assign);
    Tensor::new(out, ctx.shape.clone())
}

/// Folds a sign bitmap's `±scale` straight into the merge accumulator.
///
/// # Panics
///
/// On a contribution [`check_codes`] rejects.
fn fold_signs(
    payloads: PayloadList<'_>,
    scale: f32,
    ctx: &Context,
    acc: &mut Vec<f32>,
    fold: Fold,
) {
    let PayloadView::Packed { data, .. } = payloads.get(0) else {
        panic!("expected packed signs, got {:?}", payloads.get(0));
    };
    let count = ctx.shape.len();
    let values = (0..count).map(|i| {
        if (data[i / 8] >> (i % 8)) & 1 != 0 {
            -scale
        } else {
            scale
        }
    });
    fold.apply_iter(acc, count, values);
}

/// Checks a gathered contribution of one `bits`-wide packed code per
/// element, in exactly the bytes those take, with `scalars` context
/// scalars.
///
/// # Errors
///
/// [`PayloadError::Malformed`] for any other contribution.
pub(crate) fn check_codes(
    payloads: PayloadList<'_>,
    ctx: &Context,
    bits: u32,
    scalars: usize,
) -> Result<(), PayloadError> {
    let count = ctx.shape.len();
    let sound = payloads.len() == 1
        && ctx.meta.len() == scalars
        && matches!(payloads.get(0), PayloadView::Packed { data, bits: b, count: n }
            if b == bits && n as usize == count && data.len() == packed_len(count, bits));
    if sound {
        Ok(())
    } else {
        Err(PayloadError::Malformed(format!(
            "expected one {bits}-bit stream of {count} codes and {scalars} scalars"
        )))
    }
}

/// SignSGD (Bernstein et al., ICML'18): transmits only the sign of every
/// element; decoding yields ±1.
///
/// The paper runs it without error feedback (Table I) and with vanilla SGD at
/// a sign-appropriate learning rate.
#[derive(Debug, Default)]
pub struct SignSgd;

impl SignSgd {
    /// Creates the compressor.
    pub fn new() -> Self {
        SignSgd
    }
}

impl Compressor for SignSgd {
    fn name(&self) -> String {
        "SignSGD".to_string()
    }

    fn compress(&mut self, tensor: &Tensor, _name: &str) -> (Vec<Payload>, Context) {
        (
            vec![compress_signs(tensor)],
            Context::shape_only(tensor.shape().clone()),
        )
    }

    fn decompress(&mut self, payloads: &[Payload], ctx: &Context) -> Tensor {
        decompress_signs(payloads, 1.0, ctx)
    }

    fn fold_gathered(
        &mut self,
        payloads: PayloadList<'_>,
        ctx: &Context,
        acc: &mut Vec<f32>,
        fold: Fold,
    ) {
        fold_signs(payloads, 1.0, ctx, acc, fold);
    }

    fn check_gathered(&self, payloads: PayloadList<'_>, ctx: &Context) -> Result<(), PayloadError> {
        check_codes(payloads, ctx, 1, 0)
    }

    fn supports_error_feedback(&self) -> bool {
        // EF harms SignSGD (§V-B); EFsignSGD is the fixed variant.
        true
    }
}

/// SIGNUM (Bernstein et al., ICLR'19): SignSGD on a momentum-filtered
/// gradient, `u ← β·u + (1−β)·g`, transmitting `sign(u)`.
#[derive(Debug)]
pub struct Signum {
    beta: f32,
    momentum: HashMap<String, Tensor>,
}

impl Default for Signum {
    fn default() -> Self {
        Self::new()
    }
}

impl Signum {
    /// Creates SIGNUM with the standard β = 0.9.
    pub fn new() -> Self {
        Self::with_beta(0.9)
    }

    /// Creates SIGNUM with an explicit momentum constant.
    ///
    /// # Panics
    ///
    /// Panics if β is outside `[0, 1)`.
    pub fn with_beta(beta: f32) -> Self {
        assert!((0.0..1.0).contains(&beta), "beta must be in [0,1)");
        Signum {
            beta,
            momentum: HashMap::new(),
        }
    }
}

impl Compressor for Signum {
    fn name(&self) -> String {
        "SIGNUM".to_string()
    }

    fn compress(&mut self, tensor: &Tensor, name: &str) -> (Vec<Payload>, Context) {
        let u = self
            .momentum
            .entry(name.to_string())
            .or_insert_with(|| tensor.zeros_like());
        u.scale(self.beta);
        u.axpy(1.0 - self.beta, tensor);
        (
            vec![compress_signs(u)],
            Context::shape_only(tensor.shape().clone()),
        )
    }

    fn decompress(&mut self, payloads: &[Payload], ctx: &Context) -> Tensor {
        decompress_signs(payloads, 1.0, ctx)
    }

    fn fold_gathered(
        &mut self,
        payloads: PayloadList<'_>,
        ctx: &Context,
        acc: &mut Vec<f32>,
        fold: Fold,
    ) {
        fold_signs(payloads, 1.0, ctx, acc, fold);
    }

    fn check_gathered(&self, payloads: PayloadList<'_>, ctx: &Context) -> Result<(), PayloadError> {
        check_codes(payloads, ctx, 1, 0)
    }
}

/// EFsignSGD (Karimireddy et al., ICML'19): sign compression scaled by the
/// mean absolute value `‖p‖₁/d`, designed to be run under error feedback
/// (which the framework's [`grace_core::ResidualMemory`] provides).
#[derive(Debug, Default)]
pub struct EfSignSgd;

impl EfSignSgd {
    /// Creates the compressor.
    pub fn new() -> Self {
        EfSignSgd
    }
}

impl Compressor for EfSignSgd {
    fn name(&self) -> String {
        "EFsignSGD".to_string()
    }

    fn compress(&mut self, tensor: &Tensor, _name: &str) -> (Vec<Payload>, Context) {
        let scale = if tensor.is_empty() {
            0.0
        } else {
            tensor.norm1() / tensor.len() as f32
        };
        (
            vec![compress_signs(tensor)],
            Context::with_meta(tensor.shape().clone(), vec![scale]),
        )
    }

    fn decompress(&mut self, payloads: &[Payload], ctx: &Context) -> Tensor {
        decompress_signs(payloads, ctx.meta[0], ctx)
    }

    fn fold_gathered(
        &mut self,
        payloads: PayloadList<'_>,
        ctx: &Context,
        acc: &mut Vec<f32>,
        fold: Fold,
    ) {
        fold_signs(payloads, ctx.meta[0], ctx, acc, fold);
    }

    fn check_gathered(&self, payloads: PayloadList<'_>, ctx: &Context) -> Result<(), PayloadError> {
        check_codes(payloads, ctx, 1, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::*;

    #[test]
    fn signsgd_payload_is_one_bit_per_element() {
        let mut c = SignSgd::new();
        let g = gradient(800, 1);
        let (out, payloads, _) = roundtrip(&mut c, &g);
        assert_eq!(payloads[0].encoded_bytes(), 100); // 800 bits
        for i in 0..g.len() {
            assert_eq!(out[i], if g[i] < 0.0 { -1.0 } else { 1.0 });
        }
    }

    #[test]
    fn signum_momentum_smooths_sign_flips() {
        let mut c = Signum::with_beta(0.9);
        // Feed a large positive gradient, then a small negative one: the
        // momentum keeps the sign positive.
        let big = Tensor::from_vec(vec![10.0]);
        let (p1, ctx1) = c.compress(&big, "w");
        assert_eq!(c.decompress(&p1, &ctx1)[0], 1.0);
        let small_neg = Tensor::from_vec(vec![-0.1]);
        let (p2, ctx2) = c.compress(&small_neg, "w");
        assert_eq!(
            c.decompress(&p2, &ctx2)[0],
            1.0,
            "momentum should hold sign"
        );
        // But repeated negatives eventually flip it.
        let mut flipped = false;
        for _ in 0..60 {
            let (p, ctx) = c.compress(&small_neg, "w");
            if c.decompress(&p, &ctx)[0] < 0.0 {
                flipped = true;
                break;
            }
        }
        assert!(flipped, "persistent negatives must flip the sign");
    }

    #[test]
    fn signum_state_is_per_tensor() {
        let mut c = Signum::new();
        let pos = Tensor::from_vec(vec![1.0]);
        let neg = Tensor::from_vec(vec![-1.0]);
        let (pa, ca) = c.compress(&pos, "a");
        let (pb, cb) = c.compress(&neg, "b");
        assert_eq!(c.decompress(&pa, &ca)[0], 1.0);
        assert_eq!(c.decompress(&pb, &cb)[0], -1.0);
    }

    #[test]
    fn efsignsgd_scale_is_mean_abs() {
        let mut c = EfSignSgd::new();
        let g = Tensor::from_vec(vec![1.0, -3.0, 2.0, -2.0]);
        let (out, payloads, ctx) = roundtrip(&mut c, &g);
        assert_eq!(ctx.meta[0], 2.0); // (1+3+2+2)/4
        assert_eq!(out.as_slice(), &[2.0, -2.0, 2.0, -2.0]);
        assert_eq!(payloads[0].encoded_bytes(), 1);
    }

    #[test]
    fn ef_residual_shrinks_with_efsignsgd() {
        use grace_core::{Memory, ResidualMemory};
        let mut c = EfSignSgd::new();
        let mut mem = ResidualMemory::new();
        let g = gradient(64, 5);
        // Two EF iterations: the residual stays bounded (ef fixes signSGD).
        let comp1 = mem.compensate("w", &g);
        let (p, ctx) = c.compress(&comp1, "w");
        let dec = c.decompress(&p, &ctx);
        mem.update("w", &comp1, &dec);
        let r1 = mem.residual("w").unwrap().norm2();
        let comp2 = mem.compensate("w", &g);
        let (p2, ctx2) = c.compress(&comp2, "w");
        let dec2 = c.decompress(&p2, &ctx2);
        mem.update("w", &comp2, &dec2);
        let r2 = mem.residual("w").unwrap().norm2();
        assert!(r1.is_finite() && r2.is_finite());
        assert!(r2 < 4.0 * g.norm2(), "residual exploding: {r2}");
    }

    #[test]
    fn names_and_strategy() {
        assert_eq!(SignSgd::new().name(), "SignSGD");
        assert_eq!(Signum::new().name(), "SIGNUM");
        assert_eq!(EfSignSgd::new().name(), "EFsignSGD");
        assert_eq!(SignSgd::new().strategy(), CommStrategy::Allgather);
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn signum_rejects_bad_beta() {
        let _ = Signum::with_beta(1.0);
    }
}
