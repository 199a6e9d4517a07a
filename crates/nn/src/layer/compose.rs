//! Composite layers: residual blocks, dense-concat blocks, reshapes.
//!
//! These provide the *gradient-tensor profile* of the paper's benchmark
//! architectures: ResNets are stacks of residual blocks, DenseNets stack
//! concatenative blocks, and sequence models reshape `[batch, seq·h]` into
//! `[batch·seq, h]` before a shared output projection.

use super::{forward_stack, Layer, Param};
use grace_tensor::{Shape, Tensor};

/// A residual block: `y = x + inner(x)`.
///
/// The inner stack must preserve the feature width.
pub struct Residual {
    name: String,
    inner: Vec<Box<dyn Layer>>,
}

impl Residual {
    /// Wraps an inner layer stack in a skip connection.
    pub fn new(name: impl Into<String>, inner: Vec<Box<dyn Layer>>) -> Self {
        Residual {
            name: name.into(),
            inner,
        }
    }
}

impl std::fmt::Debug for Residual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Residual({}, {} inner layers)",
            self.name,
            self.inner.len()
        )
    }
}

impl Layer for Residual {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let mut h = forward_stack(&mut self.inner, input, training);
        assert_eq!(
            h.len(),
            input.len(),
            "residual block '{}' inner stack changed the width",
            self.name
        );
        h.add_assign(input);
        h
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = grad_output.clone();
        for layer in self.inner.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g.add_assign(grad_output);
        g
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.inner {
            layer.visit_params(f);
        }
    }
}

/// A DenseNet-style block: `y = concat(x, inner(x))` along features.
pub struct DenseConcat {
    name: String,
    inner: Vec<Box<dyn Layer>>,
    in_features: usize,
}

impl DenseConcat {
    /// Wraps an inner stack whose output is concatenated after the input.
    pub fn new(name: impl Into<String>, inner: Vec<Box<dyn Layer>>) -> Self {
        DenseConcat {
            name: name.into(),
            inner,
            in_features: 0,
        }
    }
}

impl std::fmt::Debug for DenseConcat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DenseConcat({}, {} inner layers)",
            self.name,
            self.inner.len()
        )
    }
}

impl Layer for DenseConcat {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let (batch, feat) = input.shape().as_matrix();
        if training {
            self.in_features = feat;
        }
        let h = forward_stack(&mut self.inner, input, training);
        let (hb, hf) = h.shape().as_matrix();
        assert_eq!(hb, batch, "dense-concat '{}' batch changed", self.name);
        let mut out = vec![0.0f32; batch * (feat + hf)];
        for bi in 0..batch {
            out[bi * (feat + hf)..bi * (feat + hf) + feat]
                .copy_from_slice(&input.as_slice()[bi * feat..(bi + 1) * feat]);
            out[bi * (feat + hf) + feat..(bi + 1) * (feat + hf)]
                .copy_from_slice(&h.as_slice()[bi * hf..(bi + 1) * hf]);
        }
        Tensor::new(out, Shape::matrix(batch, feat + hf))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let (batch, total) = grad_output.shape().as_matrix();
        let feat = self.in_features;
        let hf = total - feat;
        let mut d_skip = vec![0.0f32; batch * feat];
        let mut d_inner = vec![0.0f32; batch * hf];
        for bi in 0..batch {
            d_skip[bi * feat..(bi + 1) * feat]
                .copy_from_slice(&grad_output.as_slice()[bi * total..bi * total + feat]);
            d_inner[bi * hf..(bi + 1) * hf]
                .copy_from_slice(&grad_output.as_slice()[bi * total + feat..(bi + 1) * total]);
        }
        let mut g = Tensor::new(d_inner, Shape::matrix(batch, hf));
        for layer in self.inner.iter_mut().rev() {
            g = layer.backward(&g);
        }
        let mut dx = Tensor::new(d_skip, Shape::matrix(batch, feat));
        dx.add_assign(&g);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.inner {
            layer.visit_params(f);
        }
    }
}

/// Regroups rows: `[batch, k·f] → [batch·k, f]` (forward) and back
/// (backward). A pure view change in row-major layout.
#[derive(Debug)]
pub struct Reshape {
    name: String,
    factor: usize,
    cached_batch: usize,
}

impl Reshape {
    /// Creates a reshape that splits every row into `factor` rows.
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0`.
    pub fn new(name: impl Into<String>, factor: usize) -> Self {
        assert!(factor > 0, "reshape factor must be positive");
        Reshape {
            name: name.into(),
            factor,
            cached_batch: 0,
        }
    }
}

impl Layer for Reshape {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let (batch, feat) = input.shape().as_matrix();
        assert!(
            feat % self.factor == 0,
            "reshape '{}': {feat} features not divisible by {}",
            self.name,
            self.factor
        );
        if training {
            self.cached_batch = batch;
        }
        input
            .clone()
            .reshape(Shape::matrix(batch * self.factor, feat / self.factor))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let (rows, f) = grad_output.shape().as_matrix();
        assert_eq!(
            rows % self.cached_batch,
            0,
            "reshape backward shape mismatch"
        );
        grad_output.clone().reshape(Shape::matrix(
            self.cached_batch,
            rows / self.cached_batch * f,
        ))
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testutil::*;
    use crate::layer::{Activation, ActivationKind, Dense};
    use grace_tensor::rng::seeded;

    fn small_inner(dim: usize, seed: u64) -> Vec<Box<dyn Layer>> {
        let mut rng = seeded(seed);
        vec![
            Box::new(Dense::new("inner/fc", dim, dim, &mut rng)) as Box<dyn Layer>,
            Box::new(Activation::new("inner/act", ActivationKind::Tanh)),
        ]
    }

    #[test]
    fn residual_identity_when_inner_is_zero() {
        let mut rng = seeded(1);
        let mut inner = Dense::new("z", 3, 3, &mut rng);
        inner.visit_params(&mut |p| p.value.scale(0.0));
        let mut r = Residual::new("res", vec![Box::new(inner)]);
        let x = random_input(2, 3, 2);
        let y = r.forward(&x, true);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn residual_gradients_match_finite_difference() {
        let mut r = Residual::new("res", small_inner(4, 3));
        let input = random_input(3, 4, 4);
        check_input_gradient(&mut r, &input, 2e-2);
        check_param_gradients(&mut r, &input, 2e-2);
    }

    #[test]
    fn dense_concat_widens_features() {
        let mut rng = seeded(5);
        let inner = vec![Box::new(Dense::new("grow", 3, 2, &mut rng)) as Box<dyn Layer>];
        let mut d = DenseConcat::new("dc", inner);
        let x = random_input(2, 3, 6);
        let y = d.forward(&x, true);
        assert_eq!(y.shape(), &Shape::matrix(2, 5));
        // First 3 features of each row are the skip copy.
        assert_eq!(&y.as_slice()[0..3], &x.as_slice()[0..3]);
        assert_eq!(&y.as_slice()[5..8], &x.as_slice()[3..6]);
    }

    #[test]
    fn dense_concat_gradients_match_finite_difference() {
        let mut rng = seeded(7);
        let inner = vec![
            Box::new(Dense::new("grow", 3, 2, &mut rng)) as Box<dyn Layer>,
            Box::new(Activation::new("act", ActivationKind::Sigmoid)),
        ];
        let mut d = DenseConcat::new("dc", inner);
        let input = random_input(2, 3, 8);
        check_input_gradient(&mut d, &input, 2e-2);
        check_param_gradients(&mut d, &input, 2e-2);
    }

    #[test]
    fn reshape_roundtrip() {
        let mut r = Reshape::new("rs", 3);
        let x = random_input(2, 6, 9);
        let y = r.forward(&x, true);
        assert_eq!(y.shape(), &Shape::matrix(6, 2));
        assert_eq!(y.as_slice(), x.as_slice());
        let back = r.backward(&y);
        assert_eq!(back.shape(), &Shape::matrix(2, 6));
        assert_eq!(back.as_slice(), x.as_slice());
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn reshape_rejects_indivisible_width() {
        let mut r = Reshape::new("rs", 4);
        let _ = r.forward(&random_input(1, 6, 1), true);
    }

    #[test]
    fn composite_param_visitation() {
        let mut r = Residual::new("res", small_inner(4, 10));
        assert_eq!(r.param_count(), 20);
        let mut d = DenseConcat::new("dc", small_inner(4, 11));
        assert_eq!(d.param_count(), 20);
        let mut names = Vec::new();
        r.visit_params(&mut |p| names.push(p.name.clone()));
        assert_eq!(names, vec!["inner/fc/w", "inner/fc/b"]);
    }
}
