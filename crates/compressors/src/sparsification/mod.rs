//! Sparsification methods (paper §III-B): transmit a subset of elements as
//! (values, indices) pairs.

mod dgc;
mod random_k;
mod threshold_v;
mod top_k;

pub use dgc::Dgc;
pub use random_k::RandomK;
pub use threshold_v::ThresholdV;
pub use top_k::TopK;

use grace_core::{Context, Payload, PayloadError, PayloadList, PayloadView};
use grace_tensor::select::scatter;
use grace_tensor::Tensor;

/// Builds the standard sparse wire format: values + indices payloads.
pub(crate) fn sparse_payloads(values: Vec<f32>, indices: Vec<u32>) -> Vec<Payload> {
    vec![Payload::F32(values), Payload::U32(indices)]
}

/// Restores a dense tensor from the standard sparse wire format, scattering
/// straight from the payloads: the output is the one allocation.
pub(crate) fn sparse_decompress(payloads: &[Payload], ctx: &Context) -> Tensor {
    scatter(
        payloads[0].as_f32(),
        payloads[1].as_u32(),
        ctx.shape.clone(),
    )
}

/// Checks a gathered contribution in the standard sparse wire format for a
/// tensor of `ctx`'s shape: an `f32` value list and a `u32` index list of
/// one length, no context scalars, and every index inside the tensor —
/// what [`sparse_decompress`] scatters without looking.
///
/// # Errors
///
/// [`PayloadError::Malformed`] for any other contribution.
pub(crate) fn check_sparse(payloads: PayloadList<'_>, ctx: &Context) -> Result<(), PayloadError> {
    if payloads.len() != 2 || !ctx.meta.is_empty() {
        return Err(PayloadError::Malformed(format!(
            "sparse contribution of {} payloads and {} scalars, expected 2 and 0",
            payloads.len(),
            ctx.meta.len()
        )));
    }
    let values = match payloads.get(0) {
        PayloadView::F32(v) => v.len(),
        PayloadView::F32Le(b) if b.len() % 4 == 0 => b.len() / 4,
        _ => return Err(PayloadError::Malformed("sparse values are not f32".into())),
    };
    let indices = checked_indices(payloads.get(1), ctx.shape.len())?;
    if values != indices {
        return Err(PayloadError::Malformed(format!(
            "{values} values for {indices} indices"
        )));
    }
    Ok(())
}

/// The length of a `u32` index list whose every index is below `numel`,
/// so that it holds at most `numel` distinct ones.
///
/// # Errors
///
/// [`PayloadError::Malformed`] for another view or an index out of range.
pub(crate) fn checked_indices(view: PayloadView<'_>, numel: usize) -> Result<usize, PayloadError> {
    let inside = |i: u32| (i as usize) < numel;
    let (len, all_inside) = match view {
        PayloadView::U32(v) => (v.len(), v.iter().all(|&i| inside(i))),
        PayloadView::U32Le(b) if b.len() % 4 == 0 => {
            let word = |w: &[u8]| u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            (b.len() / 4, b.chunks_exact(4).all(|w| inside(word(w))))
        }
        _ => return Err(PayloadError::Malformed("sparse indices are not u32".into())),
    };
    if len > numel || !all_inside {
        return Err(PayloadError::Malformed(format!(
            "{len} indices not all inside a tensor of {numel}"
        )));
    }
    Ok(len)
}

/// Resolves a sparsity ratio into an element count `k ≥ 1`.
pub(crate) fn ratio_to_k(ratio: f64, d: usize) -> usize {
    ((d as f64 * ratio).ceil() as usize).clamp(1, d.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use grace_tensor::Shape;

    #[test]
    fn ratio_to_k_clamps() {
        assert_eq!(ratio_to_k(0.01, 1000), 10);
        assert_eq!(ratio_to_k(0.001, 100), 1); // at least one element
        assert_eq!(ratio_to_k(2.0, 100), 100); // capped at d
        assert_eq!(ratio_to_k(0.5, 7), 4); // ceil
    }

    /// A frame that passes its CRC is still bytes a peer wrote: for each of
    /// the four codecs on this format, every view list the scatter cannot
    /// take is a typed rejection — before any element folds — and a sound
    /// one, owned or little-endian, folds to `decompress`'s bits.
    #[test]
    fn malformed_views_are_rejected_before_any_element_folds() {
        use grace_core::Compressor;
        use grace_tensor::simd::Fold;
        let ctx = Context::shape_only(Shape::vector(10));
        let (values, indices) = ([1.0f32, -2.0, 3.0], [0u32, 4, 9]);
        let f32_le: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let u32_le = |w: &[u32]| -> Vec<u8> { w.iter().flat_map(|i| i.to_le_bytes()).collect() };
        let (indices_le, beyond_le) = (u32_le(&indices), u32_le(&[0, u32::MAX, 9]));
        let (eleven_values, eleven_indices) = ([0.5f32; 11], [1u32; 11]);
        let (f, u) = (PayloadView::F32(&values), PayloadView::U32(&indices));
        let packed = PayloadView::Packed {
            data: &[0; 2],
            bits: 4,
            count: 3,
        };
        let malformed: [(&str, Vec<PayloadView<'_>>); 11] = [
            ("one view", vec![f]),
            ("three views", vec![f, u, u]),
            ("u32 values", vec![u, u]),
            ("f32 indices", vec![f, f]),
            ("packed indices", vec![f, packed]),
            (
                "ragged value bytes",
                vec![PayloadView::F32Le(&f32_le[..11]), u],
            ),
            (
                "ragged index bytes",
                vec![f, PayloadView::U32Le(&indices_le[..11])],
            ),
            ("fewer values", vec![PayloadView::F32(&values[..2]), u]),
            ("index 10 of 10", vec![f, PayloadView::U32(&[0, 4, 10])]),
            ("index u32::MAX", vec![f, PayloadView::U32Le(&beyond_le)]),
            (
                "11 of 10",
                vec![
                    PayloadView::F32(&eleven_values),
                    PayloadView::U32(&eleven_indices),
                ],
            ),
        ];
        let codecs: [Box<dyn Compressor>; 4] = [
            Box::new(TopK::new(0.3)),
            Box::new(RandomK::new(0.3, 1)),
            Box::new(ThresholdV::new(0.5)),
            Box::new(Dgc::new(0.3, 1)),
        ];
        let want = sparse_decompress(&sparse_payloads(values.to_vec(), indices.to_vec()), &ctx);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for mut c in codecs {
            let name = c.name();
            for sound in [
                [f, u],
                [PayloadView::F32Le(&f32_le), PayloadView::U32Le(&indices_le)],
            ] {
                c.check_gathered(PayloadList::Views(&sound), &ctx).unwrap();
                let mut acc = Vec::new();
                c.fold_gathered(PayloadList::Views(&sound), &ctx, &mut acc, Fold::Assign);
                assert_eq!(bits(&acc), bits(want.as_slice()), "{name}");
            }
            for (what, views) in &malformed {
                assert!(
                    matches!(
                        c.check_gathered(PayloadList::Views(views), &ctx),
                        Err(PayloadError::Malformed(_))
                    ),
                    "{name}: {what}"
                );
            }
            let with_meta = Context::with_meta(ctx.shape.clone(), vec![1.0]);
            let sound = PayloadList::Views(&[f, u]);
            assert!(
                c.check_gathered(sound, &with_meta).is_err(),
                "{name}: a scalar"
            );
        }
    }

    #[test]
    fn sparse_wire_roundtrip() {
        let payloads = sparse_payloads(vec![5.0, -1.0], vec![1, 3]);
        let ctx = Context::shape_only(Shape::vector(4));
        let out = sparse_decompress(&payloads, &ctx);
        assert_eq!(out.as_slice(), &[0.0, 5.0, 0.0, -1.0]);
    }
}
