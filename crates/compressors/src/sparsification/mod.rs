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

use grace_core::{Context, Payload};
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

    #[test]
    fn sparse_wire_roundtrip() {
        let payloads = sparse_payloads(vec![5.0, -1.0], vec![1, 3]);
        let ctx = Context::shape_only(Shape::vector(4));
        let out = sparse_decompress(&payloads, &ctx);
        assert_eq!(out.as_slice(), &[0.0, 5.0, 0.0, -1.0]);
    }
}
