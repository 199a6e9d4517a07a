//! Normalisation and regularisation layers.

use super::{Layer, Param};
use grace_tensor::rng::substream;
use grace_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

/// Layer normalisation: each row is standardised to zero mean / unit
/// variance, then scaled and shifted by learned `gamma`/`beta`.
#[derive(Debug)]
pub struct LayerNorm {
    name: String,
    gamma: Param,
    beta: Param,
    dim: usize,
    eps: f32,
    cached_normalized: Tensor,
    cached_inv_std: Vec<f32>,
}

impl LayerNorm {
    /// Creates layer normalisation over `dim` features.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(name: impl Into<String>, dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        let name = name.into();
        LayerNorm {
            gamma: Param::new(
                format!("{name}/gamma"),
                Tensor::filled(Shape::vector(dim), 1.0),
            ),
            beta: Param::new(format!("{name}/beta"), Tensor::zeros(Shape::vector(dim))),
            name,
            dim,
            eps: 1e-5,
            cached_normalized: Tensor::from_vec(Vec::new()),
            cached_inv_std: Vec::new(),
        }
    }
}

impl Layer for LayerNorm {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let (batch, feat) = input.shape().as_matrix();
        assert_eq!(feat, self.dim, "layernorm '{}' width mismatch", self.name);
        // The normalized rows and per-row scales, kept for backward only.
        let mut cache = training.then(|| (vec![0.0f32; batch * feat], Vec::with_capacity(batch)));
        let mut out = vec![0.0f32; batch * feat];
        for b in 0..batch {
            let row = &input.as_slice()[b * feat..(b + 1) * feat];
            let mean: f32 = row.iter().sum::<f32>() / feat as f32;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / feat as f32;
            let inv_std = 1.0 / (var + self.eps).sqrt();
            for j in 0..feat {
                let nv = (row[j] - mean) * inv_std;
                out[b * feat + j] = self.gamma.value[j] * nv + self.beta.value[j];
                if let Some((normalized, _)) = &mut cache {
                    normalized[b * feat + j] = nv;
                }
            }
            if let Some((_, inv_stds)) = &mut cache {
                inv_stds.push(inv_std);
            }
        }
        if let Some((normalized, inv_stds)) = cache {
            self.cached_normalized = Tensor::new(normalized, Shape::matrix(batch, feat));
            self.cached_inv_std = inv_stds;
        }
        Tensor::new(out, Shape::matrix(batch, feat))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let (batch, feat) = self.cached_normalized.shape().as_matrix();
        assert_eq!(grad_output.len(), batch * feat, "backward size mismatch");
        let mut dgamma = vec![0.0f32; feat];
        let mut dbeta = vec![0.0f32; feat];
        let mut dx = vec![0.0f32; batch * feat];
        for b in 0..batch {
            let go = &grad_output.as_slice()[b * feat..(b + 1) * feat];
            let nv = &self.cached_normalized.as_slice()[b * feat..(b + 1) * feat];
            let inv_std = self.cached_inv_std[b];
            // dnorm = go ⊙ gamma; then the standard layer-norm backward.
            let mut sum_dn = 0.0f32;
            let mut sum_dn_nv = 0.0f32;
            for j in 0..feat {
                let dn = go[j] * self.gamma.value[j];
                sum_dn += dn;
                sum_dn_nv += dn * nv[j];
                dgamma[j] += go[j] * nv[j];
                dbeta[j] += go[j];
            }
            let n = feat as f32;
            for j in 0..feat {
                let dn = go[j] * self.gamma.value[j];
                dx[b * feat + j] = inv_std * (dn - sum_dn / n - nv[j] * sum_dn_nv / n);
            }
        }
        self.gamma.grad = Tensor::new(dgamma, Shape::vector(feat));
        self.beta.grad = Tensor::new(dbeta, Shape::vector(feat));
        Tensor::new(dx, Shape::matrix(batch, feat))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

/// Inverted dropout with a per-instance seeded RNG so training runs are
/// reproducible. The mask is resampled every training forward; an inference
/// forward is the identity.
#[derive(Debug)]
pub struct Dropout {
    name: String,
    rate: f32,
    rng: StdRng,
    mask: Vec<f32>,
}

impl Dropout {
    /// Creates dropout zeroing each activation with probability `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1)`.
    pub fn new(name: impl Into<String>, rate: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&rate), "rate must be in [0,1)");
        Dropout {
            name: name.into(),
            rate,
            rng: substream(seed, 0xd201),
            mask: Vec::new(),
        }
    }
}

impl Layer for Dropout {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        if !training {
            return input.clone();
        }
        if self.rate == 0.0 {
            self.mask = vec![1.0; input.len()];
            return input.clone();
        }
        let keep = 1.0 - self.rate;
        self.mask = (0..input.len())
            .map(|_| {
                if self.rng.gen::<f32>() < keep {
                    1.0 / keep // inverted dropout keeps activations unbiased
                } else {
                    0.0
                }
            })
            .collect();
        let data: Vec<f32> = input
            .as_slice()
            .iter()
            .zip(&self.mask)
            .map(|(v, m)| v * m)
            .collect();
        Tensor::new(data, input.shape().clone())
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert_eq!(grad_output.len(), self.mask.len(), "backward size mismatch");
        let data: Vec<f32> = grad_output
            .as_slice()
            .iter()
            .zip(&self.mask)
            .map(|(g, m)| g * m)
            .collect();
        Tensor::new(data, grad_output.shape().clone())
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testutil::*;

    #[test]
    fn layernorm_rows_are_standardised_at_identity_params() {
        let mut ln = LayerNorm::new("ln", 8);
        let x = random_input(4, 8, 3);
        let y = ln.forward(&x, true);
        for b in 0..4 {
            let row = &y.as_slice()[b * 8..(b + 1) * 8];
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-5, "row {b} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {b} var {var}");
        }
    }

    #[test]
    fn layernorm_gradients_match_finite_difference() {
        let mut ln = LayerNorm::new("ln", 5);
        // Perturb gamma/beta away from identity to exercise all paths.
        ln.visit_params(&mut |p| {
            for i in 0..p.value.len() {
                p.value[i] += 0.1 * (i as f32 - 2.0);
            }
        });
        let input = random_input(3, 5, 7);
        check_input_gradient(&mut ln, &input, 3e-2);
        check_param_gradients(&mut ln, &input, 3e-2);
    }

    #[test]
    fn dropout_eval_mode_is_identity() {
        let mut d = Dropout::new("do", 0.5, 1);
        let x = random_input(2, 10, 4);
        assert_eq!(d.forward(&x, false).as_slice(), x.as_slice());
        assert_ne!(d.forward(&x, true).as_slice(), x.as_slice());
    }

    #[test]
    fn dropout_is_unbiased_in_expectation() {
        let mut d = Dropout::new("do", 0.3, 2);
        let x = Tensor::filled(Shape::matrix(1, 5000), 1.0);
        let y = d.forward(&x, true);
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.05, "inverted dropout mean {mean}");
    }

    #[test]
    fn dropout_backward_uses_the_same_mask() {
        let mut d = Dropout::new("do", 0.5, 3);
        let x = Tensor::filled(Shape::matrix(1, 100), 1.0);
        let y = d.forward(&x, true);
        let g = Tensor::filled(Shape::matrix(1, 100), 1.0);
        let dx = d.backward(&g);
        // Gradient flows exactly where activations flowed.
        for i in 0..100 {
            assert_eq!(dx[i] == 0.0, y[i] == 0.0, "mask mismatch at {i}");
        }
    }

    #[test]
    fn dropout_has_no_params_and_layernorm_has_two() {
        let mut d = Dropout::new("do", 0.1, 4);
        assert_eq!(d.param_count(), 0);
        let mut ln = LayerNorm::new("ln", 6);
        assert_eq!(ln.param_count(), 12);
        let mut names = Vec::new();
        ln.visit_params(&mut |p| names.push(p.name.clone()));
        assert_eq!(names, vec!["ln/gamma", "ln/beta"]);
    }

    #[test]
    #[should_panic(expected = "rate")]
    fn dropout_rejects_rate_one() {
        let _ = Dropout::new("do", 1.0, 5);
    }
}

/// Batch normalisation over features: per-feature standardisation using
/// batch statistics in training and exponential running statistics at
/// inference.
///
/// The running mean/variance are *buffers*, not parameters — they are not
/// part of the communicated gradient stream, mirroring how frameworks treat
/// them.
#[derive(Debug)]
pub struct BatchNorm {
    name: String,
    gamma: Param,
    beta: Param,
    dim: usize,
    eps: f32,
    momentum: f32,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    cached_centered: Tensor,
    cached_inv_std: Vec<f32>,
}

impl BatchNorm {
    /// Creates batch normalisation over `dim` features with running-stat
    /// momentum 0.9.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(name: impl Into<String>, dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        let name = name.into();
        BatchNorm {
            gamma: Param::new(
                format!("{name}/gamma"),
                Tensor::filled(Shape::vector(dim), 1.0),
            ),
            beta: Param::new(format!("{name}/beta"), Tensor::zeros(Shape::vector(dim))),
            name,
            dim,
            eps: 1e-5,
            momentum: 0.9,
            running_mean: vec![0.0; dim],
            running_var: vec![1.0; dim],
            cached_centered: Tensor::from_vec(Vec::new()),
            cached_inv_std: Vec::new(),
        }
    }

    /// The current running mean (inference statistics).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }
}

impl Layer for BatchNorm {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let (batch, feat) = input.shape().as_matrix();
        assert_eq!(feat, self.dim, "batchnorm '{}' width mismatch", self.name);
        let x = input.as_slice();
        let mut out = vec![0.0f32; batch * feat];
        if training {
            assert!(batch > 0, "batchnorm needs a non-empty batch");
            let mut centered = vec![0.0f32; batch * feat];
            self.cached_inv_std.clear();
            for j in 0..feat {
                let mean: f32 = (0..batch).map(|b| x[b * feat + j]).sum::<f32>() / batch as f32;
                let var: f32 = (0..batch)
                    .map(|b| {
                        let d = x[b * feat + j] - mean;
                        d * d
                    })
                    .sum::<f32>()
                    / batch as f32;
                let inv_std = 1.0 / (var + self.eps).sqrt();
                self.cached_inv_std.push(inv_std);
                self.running_mean[j] =
                    self.momentum * self.running_mean[j] + (1.0 - self.momentum) * mean;
                self.running_var[j] =
                    self.momentum * self.running_var[j] + (1.0 - self.momentum) * var;
                for b in 0..batch {
                    let c = x[b * feat + j] - mean;
                    centered[b * feat + j] = c;
                    out[b * feat + j] = self.gamma.value[j] * c * inv_std + self.beta.value[j];
                }
            }
            self.cached_centered = Tensor::new(centered, Shape::matrix(batch, feat));
        } else {
            for j in 0..feat {
                let inv_std = 1.0 / (self.running_var[j] + self.eps).sqrt();
                for b in 0..batch {
                    out[b * feat + j] =
                        self.gamma.value[j] * (x[b * feat + j] - self.running_mean[j]) * inv_std
                            + self.beta.value[j];
                }
            }
        }
        Tensor::new(out, Shape::matrix(batch, feat))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert!(
            !self.cached_inv_std.is_empty(),
            "batchnorm backward needs a forward in training mode"
        );
        let (batch, feat) = self.cached_centered.shape().as_matrix();
        assert_eq!(grad_output.len(), batch * feat, "backward size mismatch");
        let go = grad_output.as_slice();
        let c = self.cached_centered.as_slice();
        let mut dgamma = vec![0.0f32; feat];
        let mut dbeta = vec![0.0f32; feat];
        let mut dx = vec![0.0f32; batch * feat];
        let n = batch as f32;
        for j in 0..feat {
            let inv_std = self.cached_inv_std[j];
            let mut sum_dxhat = 0.0f32;
            let mut sum_dxhat_xhat = 0.0f32;
            for b in 0..batch {
                let xhat = c[b * feat + j] * inv_std;
                let dxhat = go[b * feat + j] * self.gamma.value[j];
                sum_dxhat += dxhat;
                sum_dxhat_xhat += dxhat * xhat;
                dgamma[j] += go[b * feat + j] * xhat;
                dbeta[j] += go[b * feat + j];
            }
            for b in 0..batch {
                let xhat = c[b * feat + j] * inv_std;
                let dxhat = go[b * feat + j] * self.gamma.value[j];
                dx[b * feat + j] = inv_std / n * (n * dxhat - sum_dxhat - xhat * sum_dxhat_xhat);
            }
        }
        self.gamma.grad = Tensor::new(dgamma, Shape::vector(feat));
        self.beta.grad = Tensor::new(dbeta, Shape::vector(feat));
        Tensor::new(dx, Shape::matrix(batch, feat))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

#[cfg(test)]
mod batchnorm_tests {
    use super::*;
    use crate::layer::testutil::*;

    #[test]
    fn training_mode_standardises_features() {
        let mut bn = BatchNorm::new("bn", 3);
        let x = random_input(16, 3, 5);
        let y = bn.forward(&x, true);
        for j in 0..3 {
            let col: Vec<f32> = (0..16).map(|b| y[b * 3 + j]).collect();
            let mean: f32 = col.iter().sum::<f32>() / 16.0;
            let var: f32 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-5, "feature {j} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "feature {j} var {var}");
        }
    }

    #[test]
    fn eval_mode_uses_running_statistics() {
        let mut bn = BatchNorm::new("bn", 2);
        // Feed several training batches with a known shift.
        for seed in 0..30 {
            let mut x = random_input(8, 2, seed);
            for v in x.as_mut_slice().iter_mut() {
                *v += 5.0;
            }
            let _ = bn.forward(&x, true);
        }
        assert!(
            (bn.running_mean()[0] - 5.0).abs() < 0.5,
            "running mean {:?}",
            bn.running_mean()
        );
        // A single eval row near the running mean normalizes to ≈ 0.
        let x = Tensor::new(vec![5.0, 5.0], Shape::matrix(1, 2));
        let y = bn.forward(&x, false);
        assert!(y.norm_inf() < 1.0, "eval output {:?}", y.as_slice());
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut bn = BatchNorm::new("bn", 4);
        bn.visit_params(&mut |p| {
            for i in 0..p.value.len() {
                p.value[i] += 0.05 * i as f32;
            }
        });
        let input = random_input(6, 4, 9);
        check_input_gradient(&mut bn, &input, 5e-2);
        check_param_gradients(&mut bn, &input, 5e-2);
    }

    #[test]
    fn params_are_gamma_and_beta_only() {
        let mut bn = BatchNorm::new("bn", 7);
        assert_eq!(bn.param_count(), 14);
        let mut names = Vec::new();
        bn.visit_params(&mut |p| names.push(p.name.clone()));
        assert_eq!(names, vec!["bn/gamma", "bn/beta"]);
    }

    #[test]
    #[should_panic(expected = "training mode")]
    fn backward_without_a_training_forward_panics() {
        let mut bn = BatchNorm::new("bn", 2);
        let x = random_input(4, 2, 1);
        let _ = bn.forward(&x, false);
        let g = random_input(4, 2, 2);
        let _ = bn.backward(&g);
    }
}
