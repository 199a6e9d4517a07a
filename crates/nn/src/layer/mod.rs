//! Layers and the backpropagation contract.
//!
//! Layers exchange batches as rank-2 tensors shaped `[batch, features]`
//! (row-major). A training `forward` caches whatever `backward` needs; an
//! inference `forward` stores nothing, leaving the last training forward's
//! cache as it was. `backward` receives `∂loss/∂output`, writes
//! `∂loss/∂param` into each [`Param::grad`]
//! — in place through [`Param::grad_mut`], since a streaming sink may have
//! taken the buffer — and returns `∂loss/∂input`.
//!
//! The named parameter gradients are the unit of compression in GRACE: after
//! a `forward`/`backward` pass, [`crate::network::Network::take_gradients`]
//! exposes one named tensor per parameter, exactly like the layer-wise
//! gradients `ĝᵢ,ⱼ` of the paper's Figure 2.

mod compose;
mod conv;
mod dense;
mod embedding;
mod lstm;
mod norm;

pub use compose::{DenseConcat, Reshape, Residual};
pub use conv::Conv2d;
pub use dense::Dense;
pub use embedding::Embedding;
pub use lstm::Lstm;
pub use norm::{BatchNorm, Dropout, LayerNorm};

use grace_tensor::Tensor;

/// A named, trainable parameter with its gradient buffer.
#[derive(Debug, Clone)]
pub struct Param {
    /// Unique name, e.g. `"block2/dense/w"`. Compressor memory (error
    /// feedback) is keyed by this name.
    pub name: String,
    /// Current parameter values.
    pub value: Tensor,
    /// Gradient of the loss w.r.t. the values, written by `backward`. A
    /// streaming sink may take its buffer (it is then empty) and hand it
    /// back after the update ([`crate::network::Network::return_gradients`]).
    pub grad: Tensor,
}

impl Param {
    /// Creates a parameter with a zeroed gradient of matching shape.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = value.zeros_like();
        Param {
            name: name.into(),
            value,
            grad,
        }
    }

    /// The gradient buffer for a backward pass to overwrite: the one the
    /// parameter holds when it has the values' length — the buffer the last
    /// step handed back — else a fresh one of zeros.
    pub fn grad_mut(&mut self) -> &mut [f32] {
        if self.grad.len() != self.value.len() {
            self.grad = self.value.zeros_like();
        }
        self.grad.as_mut_slice()
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A differentiable layer.
///
/// Implementations must be deterministic given their internal state: the
/// distributed trainer replays the same batches across execution modes and
/// expects bit-identical gradients.
pub trait Layer: Send {
    /// Layer instance name (unique within a network).
    fn name(&self) -> &str;

    /// Computes the layer output for a `[batch, in_features]` input, each
    /// output row from its own input row only. With `training` it caches
    /// what `backward` needs (and dropout and batch normalisation use their
    /// training arithmetic); without, the same arithmetic stores nothing.
    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor;

    /// Backpropagates `grad_output = ∂loss/∂output`, writing parameter
    /// gradients and returning `∂loss/∂input`.
    ///
    /// Must be called after a training `forward` with a matching batch.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Visits every trainable parameter (possibly none).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Number of trainable scalars in this layer.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }
}

/// Runs `input` through `layers` in order without copying it: the first
/// layer reads the caller's tensor, and each output is dropped as soon as the
/// next layer has read it.
pub(crate) fn forward_stack(
    layers: &mut [Box<dyn Layer>],
    input: &Tensor,
    training: bool,
) -> Tensor {
    let Some((first, rest)) = layers.split_first_mut() else {
        return input.clone();
    };
    rest.iter_mut()
        .fold(first.forward(input, training), |h, layer| {
            layer.forward(&h, training)
        })
}

/// Elementwise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationKind {
    /// `max(0, x)`.
    Relu,
    /// `tanh(x)`.
    Tanh,
    /// Logistic sigmoid `1/(1+e^{-x})`.
    Sigmoid,
    /// `x` for `x>0`, `0.01x` otherwise.
    LeakyRelu,
}

impl ActivationKind {
    fn apply(self, x: f32) -> f32 {
        match self {
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::Tanh => x.tanh(),
            ActivationKind::Sigmoid => sigmoid(x),
            ActivationKind::LeakyRelu => {
                if x > 0.0 {
                    x
                } else {
                    0.01 * x
                }
            }
        }
    }

    /// Derivative expressed in terms of the activation *output* `y`
    /// (all four activations allow this).
    fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            ActivationKind::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::Tanh => 1.0 - y * y,
            ActivationKind::Sigmoid => y * (1.0 - y),
            ActivationKind::LeakyRelu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
        }
    }
}

/// Numerically-stable logistic sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// A stateless elementwise activation layer.
#[derive(Debug)]
pub struct Activation {
    name: String,
    kind: ActivationKind,
    output: Tensor,
}

impl Activation {
    /// Creates an activation layer.
    pub fn new(name: impl Into<String>, kind: ActivationKind) -> Self {
        Activation {
            name: name.into(),
            kind,
            output: Tensor::from_vec(Vec::new()),
        }
    }
}

impl Layer for Activation {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let out = input.map(|v| self.kind.apply(v));
        if !training {
            return out;
        }
        self.output = out;
        self.output.clone()
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert_eq!(
            grad_output.len(),
            self.output.len(),
            "backward batch does not match cached forward"
        );
        let mut grad_in = grad_output.clone();
        for (g, y) in grad_in
            .as_mut_slice()
            .iter_mut()
            .zip(self.output.as_slice())
        {
            *g *= self.kind.derivative_from_output(*y);
        }
        grad_in
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use grace_tensor::rng::seeded;
    use grace_tensor::Shape;
    use rand::Rng;

    /// Finite-difference check: perturb each input coordinate and compare to
    /// the analytic input gradient for the scalar loss `sum(out ⊙ w)`.
    pub fn check_input_gradient(layer: &mut dyn Layer, input: &Tensor, tol: f32) {
        let mut rng = seeded(99);
        let out = layer.forward(input, true);
        let weights: Vec<f32> = (0..out.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let w = Tensor::new(weights, out.shape().clone());
        let analytic = layer.backward(&w);
        let eps = 1e-3f32;
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus[i] += eps;
            let mut minus = input.clone();
            minus[i] -= eps;
            let f_plus = layer.forward(&plus, true).dot(&w);
            let f_minus = layer.forward(&minus, true).dot(&w);
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let diff = (numeric - analytic[i]).abs();
            let scale = numeric.abs().max(analytic[i].abs()).max(1.0);
            assert!(
                diff / scale < tol,
                "input grad mismatch at {i}: numeric {numeric}, analytic {}",
                analytic[i]
            );
        }
    }

    /// Finite-difference check for parameter gradients.
    pub fn check_param_gradients(layer: &mut dyn Layer, input: &Tensor, tol: f32) {
        let mut rng = seeded(123);
        let out = layer.forward(input, true);
        let weights: Vec<f32> = (0..out.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let w = Tensor::new(weights, out.shape().clone());
        let _ = layer.backward(&w);
        // Snapshot analytic gradients.
        let mut analytic: Vec<(String, Tensor)> = Vec::new();
        layer.visit_params(&mut |p| analytic.push((p.name.clone(), p.grad.clone())));
        let eps = 1e-3f32;
        for (pi, (pname, agrad)) in analytic.iter().enumerate() {
            // Check a subset of coordinates for large params.
            let stride = (agrad.len() / 24).max(1);
            for ci in (0..agrad.len()).step_by(stride) {
                let perturb = |delta: f32, layer: &mut dyn Layer| {
                    let mut idx = 0;
                    layer.visit_params(&mut |p| {
                        if idx == pi {
                            p.value[ci] += delta;
                        }
                        idx += 1;
                    });
                };
                perturb(eps, layer);
                let f_plus = layer.forward(input, true).dot(&w);
                perturb(-2.0 * eps, layer);
                let f_minus = layer.forward(input, true).dot(&w);
                perturb(eps, layer);
                let numeric = (f_plus - f_minus) / (2.0 * eps);
                let diff = (numeric - agrad[ci]).abs();
                let scale = numeric.abs().max(agrad[ci].abs()).max(1.0);
                assert!(
                    diff / scale < tol,
                    "{pname}[{ci}]: numeric {numeric}, analytic {}",
                    agrad[ci]
                );
            }
        }
    }

    pub fn random_input(batch: usize, features: usize, seed: u64) -> Tensor {
        let mut rng = seeded(seed);
        let data: Vec<f32> = (0..batch * features)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        Tensor::new(data, Shape::matrix(batch, features))
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert_eq!(sigmoid(1000.0), 1.0);
        assert_eq!(sigmoid(-1000.0), 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn activations_forward_values() {
        let x = Tensor::from_vec(vec![-2.0, 0.0, 3.0]);
        let mut relu = Activation::new("r", ActivationKind::Relu);
        assert_eq!(relu.forward(&x, true).as_slice(), &[0.0, 0.0, 3.0]);
        let mut leaky = Activation::new("l", ActivationKind::LeakyRelu);
        assert_eq!(leaky.forward(&x, true).as_slice(), &[-0.02, 0.0, 3.0]);
        let mut tanh = Activation::new("t", ActivationKind::Tanh);
        assert!((tanh.forward(&x, true)[2] - 3.0f32.tanh()).abs() < 1e-7);
    }

    #[test]
    fn activation_gradients_match_finite_difference() {
        for kind in [
            ActivationKind::Tanh,
            ActivationKind::Sigmoid,
            ActivationKind::LeakyRelu,
        ] {
            let mut layer = Activation::new("a", kind);
            let input = random_input(3, 5, 42);
            check_input_gradient(&mut layer, &input, 2e-2);
        }
    }

    #[test]
    fn activation_has_no_params() {
        let mut a = Activation::new("a", ActivationKind::Relu);
        assert_eq!(a.param_count(), 0);
    }

    #[test]
    fn param_new_zeroes_grad() {
        let p = Param::new("w", Tensor::from_vec(vec![1.0, 2.0]));
        assert_eq!(p.grad.as_slice(), &[0.0, 0.0]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }
}
