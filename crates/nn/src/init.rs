//! Weight initialisation schemes.

use grace_tensor::{rng, Shape, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

/// Xavier/Glorot uniform initialisation: `U(−a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`. Suitable for tanh/sigmoid layers.
pub fn xavier_uniform<R: Rng + ?Sized>(
    rng_: &mut R,
    shape: Shape,
    fan_in: usize,
    fan_out: usize,
) -> Tensor {
    let a = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
    let mut t = Tensor::zeros(shape);
    rng::fill_uniform(rng_, t.as_mut_slice(), -a, a);
    t
}

/// He/Kaiming normal initialisation: `N(0, 2/fan_in)`. Suitable for ReLU
/// layers.
pub fn he_normal(rng_: &mut StdRng, shape: Shape, fan_in: usize) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    let mut t = Tensor::zeros(shape);
    rng::fill_gaussian(rng_, t.as_mut_slice(), std);
    t
}

/// Small-scale normal initialisation `N(0, std²)`, used for embeddings.
pub fn normal(rng_: &mut StdRng, shape: Shape, std: f32) -> Tensor {
    let mut t = Tensor::zeros(shape);
    rng::fill_gaussian(rng_, t.as_mut_slice(), std);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use grace_tensor::rng::seeded;

    #[test]
    fn xavier_bounds_hold() {
        let mut r = seeded(1);
        let t = xavier_uniform(&mut r, Shape::matrix(64, 32), 64, 32);
        let a = (6.0f32 / 96.0).sqrt();
        assert!(t.as_slice().iter().all(|v| v.abs() <= a));
        assert!(t.norm2() > 0.0);
    }

    #[test]
    fn he_scale_matches_fan_in() {
        let mut r = seeded(2);
        let t = he_normal(&mut r, Shape::matrix(100, 100), 100);
        let std = t.as_slice().iter().map(|v| v * v).sum::<f32>() / 10_000.0;
        let expect = 2.0 / 100.0;
        assert!((std - expect).abs() < expect * 0.2, "std² {std}");
    }

    #[test]
    fn normal_scale() {
        let mut r = seeded(3);
        let t = normal(&mut r, Shape::vector(10_000), 0.01);
        assert!(t.norm_inf() < 0.06);
        assert!(t.norm2() > 0.0);
    }
}
