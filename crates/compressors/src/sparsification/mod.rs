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
use grace_tensor::simd::{fold_add, Fold};
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

/// The sparse-stream fold (SparCML's sparse sum) of a gathered merge:
/// each contribution folds straight from its value and index streams into
/// the accumulator, bit for bit the decoded tensors' dense fold.
///
/// The first pass zero-fills the accumulator and scatters, as the decode
/// does. A later pass adds at the positions its contribution selects, and
/// the last one then multiplies every element by `1/n`. The dense fold also
/// adds `+0.0` at every position a contribution does not select. That is
/// the identity — [`fold_add`] keeps the accumulator's NaN — except on
/// `−0.0`, which becomes `+0.0`. An adding pass that skips those positions
/// is therefore exact only while the accumulator holds no `−0.0`: a pass
/// that starts from one that may (a first contribution that selected a
/// `−0.0`) folds the decoded tensor densely instead.
#[derive(Debug, Clone, Default)]
pub(crate) struct SparseFold {
    /// Whether the last pass left no `−0.0` in the accumulator. A fresh
    /// fold does not know, so its first adding pass is dense.
    clean: bool,
    /// The contribution's values, read out of their view (pooled).
    pub(crate) values: Vec<f32>,
    /// The contribution's indices, read out of their view (pooled).
    indices: Vec<u32>,
}

impl SparseFold {
    /// Folds one contribution — a value and an index view that
    /// [`check_sparse`] accepted, for a tensor of `numel` elements — into
    /// `acc` as `fold` says.
    ///
    /// # Panics
    ///
    /// As [`fold_values`](Self::fold_values), and on views of another kind.
    pub(crate) fn fold(
        &mut self,
        values: PayloadView<'_>,
        indices: PayloadView<'_>,
        numel: usize,
        acc: &mut Vec<f32>,
        fold: Fold,
    ) {
        values.read_f32s_into(&mut self.values);
        self.fold_values(indices, numel, acc, fold);
    }

    /// Folds [`values`](Self::values) at the indices of a view that
    /// [`checked_indices`] accepted.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range, or if an adding pass meets an
    /// `acc` that does not hold `numel` elements.
    pub(crate) fn fold_values(
        &mut self,
        indices: PayloadView<'_>,
        numel: usize,
        acc: &mut Vec<f32>,
        fold: Fold,
    ) {
        indices.read_u32s_into(&mut self.indices);
        let selected = self.indices.iter().zip(&self.values);
        let negative_zero = |v: &f32| v.to_bits() == (-0.0f32).to_bits();
        let scale = match fold {
            Fold::Assign => {
                self.clean = !self.values.iter().any(negative_zero);
                acc.clear();
                acc.resize(numel, 0.0);
                selected.for_each(|(&i, &v)| acc[i as usize] = v);
                return;
            }
            _ if !self.clean => {
                // Only a selected `−0.0` added onto one leaves a `−0.0` —
                // and the `1/n` scale, rounding a tiny negative to one.
                self.clean = fold == Fold::Add && !self.values.iter().any(negative_zero);
                let mut decoded = vec![0.0; numel];
                selected.for_each(|(&i, &v)| decoded[i as usize] = v);
                return fold.apply(acc, decoded);
            }
            Fold::Add => None,
            Fold::AddScale(scale) => Some(scale),
        };
        assert_eq!(acc.len(), numel, "accumulator length");
        // Onto a clean accumulator no sum is `−0.0`, so it stays clean.
        for (&i, &v) in selected {
            let a = &mut acc[i as usize];
            *a = fold_add(*a, v);
        }
        if let Some(scale) = scale {
            acc.iter_mut().for_each(|a| *a *= scale);
            self.clean = false;
        }
    }
}

/// Checks a gathered contribution in the standard sparse wire format for a
/// tensor of `ctx`'s shape: an `f32` value list and a `u32` index list of
/// one length, no context scalars, and the indices ascending inside the
/// tensor — what [`sparse_decompress`] scatters without looking, and what
/// [`SparseFold`] adds exactly once.
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

/// The length of a `u32` index list whose indices are strictly ascending
/// and below `numel`. Every encoder emits its indices ascending; a repeated
/// one is malformed, since the decode keeps the last value there and a
/// scatter-add would add both, and one pass rules it out.
///
/// # Errors
///
/// [`PayloadError::Malformed`] for another view, or an index out of range
/// or out of order.
pub(crate) fn checked_indices(view: PayloadView<'_>, numel: usize) -> Result<usize, PayloadError> {
    match view {
        PayloadView::U32(v) => ascending(v.iter().copied(), numel),
        PayloadView::U32Le(b) if b.len() % 4 == 0 => {
            let word = |w: &[u8]| u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            ascending(b.chunks_exact(4).map(word), numel)
        }
        _ => Err(PayloadError::Malformed("sparse indices are not u32".into())),
    }
}

/// The count of `indices` when they are strictly ascending and below
/// `numel`.
fn ascending(indices: impl Iterator<Item = u32>, numel: usize) -> Result<usize, PayloadError> {
    let mut len = 0usize;
    let mut next = 0u64;
    for i in indices {
        if u64::from(i) < next || i as usize >= numel {
            return Err(PayloadError::Malformed(format!(
                "index {i} out of order or outside a tensor of {numel}"
            )));
        }
        next = u64::from(i) + 1;
        len += 1;
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
