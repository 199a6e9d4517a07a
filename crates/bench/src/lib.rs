//! Shared helpers for the ratio-gate benchmark binaries.

use grace_tensor::rng::seeded;
use grace_tensor::{Shape, Tensor};
use rand::Rng;

/// A reproducible gradient-like tensor of `bytes / 4` elements, shaped as a
/// wide matrix so low-rank methods factorize.
pub fn gradient_of_bytes(bytes: usize, seed: u64) -> Tensor {
    let elems = (bytes / 4).max(2);
    let mut rng = seeded(seed);
    let cols = 256.min(elems);
    let rows = (elems / cols).max(1);
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            let u: f32 = rng.gen_range(-1.0f32..1.0);
            u * u * u * 0.01
        })
        .collect();
    Tensor::new(data, Shape::matrix(rows, cols))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_has_requested_magnitude() {
        let g = gradient_of_bytes(1 << 16, 1);
        assert!(g.len() * 4 >= (1 << 16) - 1024);
        assert!(g.is_finite());
        let (rows, cols) = g.shape().as_matrix();
        assert!(rows > 1 && cols > 1, "matrix-shaped for low-rank methods");
    }
}
