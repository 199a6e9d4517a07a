//! Fully-connected layer.

use super::{Layer, Param};
use crate::init;
use grace_tensor::linalg::{matmul, matmul_transpose_a_into, matmul_transpose_b};
use grace_tensor::{Shape, Tensor};
use rand::rngs::StdRng;

/// A dense (fully-connected) layer: `Y = X · W + b`.
///
/// `W` has shape `[in, out]`, `b` has shape `[out]`; inputs are
/// `[batch, in]` matrices.
#[derive(Debug)]
pub struct Dense {
    name: String,
    weight: Param,
    bias: Param,
    in_dim: usize,
    out_dim: usize,
    cached_input: Tensor,
}

impl Dense {
    /// Creates a dense layer with He-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(name: impl Into<String>, in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "dense dims must be positive");
        let name = name.into();
        let weight = Param::new(
            format!("{name}/w"),
            init::he_normal(rng, Shape::matrix(in_dim, out_dim), in_dim),
        );
        let bias = Param::new(format!("{name}/b"), Tensor::zeros(Shape::vector(out_dim)));
        Dense {
            name,
            weight,
            bias,
            in_dim,
            out_dim,
            cached_input: Tensor::from_vec(Vec::new()),
        }
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature count.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

impl Layer for Dense {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let (batch, feat) = input.shape().as_matrix();
        assert_eq!(
            feat, self.in_dim,
            "dense '{}' expected {} input features, got {feat}",
            self.name, self.in_dim
        );
        if training {
            self.cached_input = input.clone();
        }
        let mut out = matmul(
            input.as_slice(),
            self.weight.value.as_slice(),
            batch,
            self.in_dim,
            self.out_dim,
        );
        let b = self.bias.value.as_slice();
        for row in out.chunks_exact_mut(self.out_dim) {
            for (o, bv) in row.iter_mut().zip(b) {
                *o += bv;
            }
        }
        Tensor::new(out, Shape::matrix(batch, self.out_dim))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let (batch, feat) = self.cached_input.shape().as_matrix();
        let (gb, gf) = grad_output.shape().as_matrix();
        assert_eq!(gb, batch, "backward batch mismatch in '{}'", self.name);
        assert_eq!(
            gf, self.out_dim,
            "backward feature mismatch in '{}'",
            self.name
        );
        // dW = Xᵀ · dY, over the last step's buffer.
        matmul_transpose_a_into(
            self.cached_input.as_slice(),
            grad_output.as_slice(),
            batch,
            feat,
            self.out_dim,
            self.weight.grad_mut(),
        );
        // db = column sums of dY
        let db = self.bias.grad_mut();
        db.fill(0.0);
        for row in grad_output.as_slice().chunks_exact(self.out_dim) {
            for (d, g) in db.iter_mut().zip(row) {
                *d += g;
            }
        }
        // dX = dY · Wᵀ
        let dx = matmul_transpose_b(
            grad_output.as_slice(),
            self.weight.value.as_slice(),
            batch,
            self.out_dim,
            self.in_dim,
        );
        Tensor::new(dx, Shape::matrix(batch, self.in_dim))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testutil::*;
    use grace_tensor::rng::seeded;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = seeded(1);
        let mut d = Dense::new("d", 3, 2, &mut rng);
        // Zero the weights so output equals the bias.
        d.visit_params(&mut |p| {
            if p.name.ends_with("/w") {
                p.value.scale(0.0);
            } else {
                p.value.as_mut_slice().copy_from_slice(&[1.0, -2.0]);
            }
        });
        let x = Tensor::new(vec![0.5; 6], Shape::matrix(2, 3));
        let y = d.forward(&x, true);
        assert_eq!(y.shape(), &Shape::matrix(2, 2));
        assert_eq!(y.as_slice(), &[1.0, -2.0, 1.0, -2.0]);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = seeded(2);
        let mut d = Dense::new("d", 4, 3, &mut rng);
        let input = random_input(5, 4, 7);
        check_input_gradient(&mut d, &input, 1e-2);
        check_param_gradients(&mut d, &input, 1e-2);
    }

    #[test]
    fn param_count_and_names() {
        let mut rng = seeded(3);
        let mut d = Dense::new("fc1", 10, 5, &mut rng);
        assert_eq!(d.param_count(), 55);
        let mut names = Vec::new();
        d.visit_params(&mut |p| names.push(p.name.clone()));
        assert_eq!(names, vec!["fc1/w", "fc1/b"]);
        assert_eq!(d.in_dim(), 10);
        assert_eq!(d.out_dim(), 5);
    }

    #[test]
    #[should_panic(expected = "expected 3 input features")]
    fn rejects_wrong_input_width() {
        let mut rng = seeded(4);
        let mut d = Dense::new("d", 3, 2, &mut rng);
        let _ = d.forward(&Tensor::new(vec![0.0; 8], Shape::matrix(2, 4)), true);
    }
}
