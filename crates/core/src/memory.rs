//! Memory (error feedback) — the φ/ψ functions of §IV-A, Equation 4.
//!
//! Lossy compression discards part of every gradient; error feedback carries
//! the discarded residual into the next iteration:
//!
//! ```text
//! φ(m, g) = β·m + γ·g                     (compensate)
//! ψ(m, g, g̃) = φ(m, g) − Q⁻¹(Q(φ(m, g)))  (update)
//! ```
//!
//! with β = γ = 1 by default, as in the paper's experiments.

use grace_tensor::Tensor;
use std::collections::HashMap;

/// Per-tensor memory used to compensate compression error.
pub trait Memory: Send {
    /// φ: combines the stored memory with the fresh local gradient.
    fn compensate(&mut self, name: &str, grad: &Tensor) -> Tensor;

    /// ψ: stores the new residual given the compensated gradient and its
    /// decompressed compression `Q⁻¹(Q(φ))`.
    fn update(&mut self, name: &str, compensated: &Tensor, decompressed: &Tensor);

    /// Whether this memory actually stores residuals (false for
    /// [`NoMemory`]). The contract an inactive memory makes: its
    /// `compensate` is the identity and its `update` a no-op — which is why
    /// the exchange lane skips the own-decode and the `update` call for it.
    fn is_active(&self) -> bool {
        true
    }

    /// Global L2 norm of the stored residual (√Σ‖mᵢ‖²) — the health
    /// monitor's error-feedback signal. `None` when the memory keeps no
    /// residual state (the default, e.g. [`NoMemory`]).
    fn residual_norm(&self) -> Option<f64> {
        None
    }
}

/// The no-memory special case: φ(m,g) = g, ψ = 0 (§IV-A footnote).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoMemory;

impl NoMemory {
    /// Creates the inert memory.
    pub fn new() -> Self {
        NoMemory
    }
}

impl Memory for NoMemory {
    /// The identity, as [`Memory::is_active`] promises for an inactive
    /// memory; the exchange engine relies on that and never calls it.
    fn compensate(&mut self, _name: &str, grad: &Tensor) -> Tensor {
        grad.clone()
    }

    fn update(&mut self, _name: &str, _compensated: &Tensor, _decompressed: &Tensor) {}

    fn is_active(&self) -> bool {
        false
    }
}

/// Residual error feedback with decay β and gradient weight γ (Equation 4).
#[derive(Debug, Clone)]
pub struct ResidualMemory {
    beta: f32,
    gamma: f32,
    store: HashMap<String, Tensor>,
}

impl ResidualMemory {
    /// Creates memory with the paper's default β = γ = 1.
    pub fn new() -> Self {
        Self::with_decay(1.0, 1.0)
    }

    /// Creates memory with explicit β (memory decay) and γ (gradient
    /// weight).
    ///
    /// # Panics
    ///
    /// Panics if β or γ is negative or non-finite, or both are zero.
    pub fn with_decay(beta: f32, gamma: f32) -> Self {
        assert!(
            beta.is_finite() && gamma.is_finite() && beta >= 0.0 && gamma >= 0.0,
            "beta/gamma must be non-negative"
        );
        assert!(
            beta > 0.0 || gamma > 0.0,
            "beta and gamma cannot both be zero"
        );
        ResidualMemory {
            beta,
            gamma,
            store: HashMap::new(),
        }
    }

    /// The stored residual for a tensor, if any.
    pub fn residual(&self, name: &str) -> Option<&Tensor> {
        self.store.get(name)
    }
}

impl Default for ResidualMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl Memory for ResidualMemory {
    /// One pass into the returned tensor: `m·β + γ·g` per element, each
    /// product rounded and then the sum, in that operand order (no FMA) —
    /// the roundings of `Tensor::scale` then `Tensor::axpy`, which the
    /// golden checksums pin.
    fn compensate(&mut self, name: &str, grad: &Tensor) -> Tensor {
        let (beta, gamma) = (self.beta, self.gamma);
        match self.store.get(name) {
            Some(m) => {
                assert_eq!(m.len(), grad.len(), "tensor length mismatch in axpy");
                let data = (m.as_slice().iter().zip(grad.as_slice()))
                    .map(|(&m, &g)| m * beta + gamma * g)
                    .collect();
                Tensor::new(data, m.shape().clone())
            }
            None => {
                let data = grad.as_slice().iter().map(|&g| g * gamma).collect();
                Tensor::new(data, grad.shape().clone())
            }
        }
    }

    /// Writes `c − d` over the stored residual; only a tensor's first
    /// update (or one that changes its shape) allocates.
    fn update(&mut self, name: &str, compensated: &Tensor, decompressed: &Tensor) {
        assert_eq!(
            compensated.len(),
            decompressed.len(),
            "tensor length mismatch in sub"
        );
        match self.store.get_mut(name) {
            Some(r) if r.shape() == compensated.shape() => {
                let pairs = compensated.as_slice().iter().zip(decompressed.as_slice());
                for (r, (&c, &d)) in r.as_mut_slice().iter_mut().zip(pairs) {
                    *r = c - d;
                }
            }
            _ => {
                self.store
                    .insert(name.to_string(), compensated.sub(decompressed));
            }
        }
    }

    fn residual_norm(&self) -> Option<f64> {
        let sq: f64 = self
            .store
            .values()
            .map(|t| {
                let n = f64::from(t.norm2());
                n * n
            })
            .sum();
        Some(sq.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_memory_is_identity() {
        let mut m = NoMemory::new();
        let g = Tensor::from_vec(vec![1.0, 2.0]);
        assert_eq!(m.compensate("w", &g), g);
        m.update("w", &g, &Tensor::from_vec(vec![0.0, 0.0]));
        assert_eq!(m.compensate("w", &g), g);
        assert!(!m.is_active());
    }

    #[test]
    fn residual_accumulates_dropped_mass() {
        let mut m = ResidualMemory::new();
        let g = Tensor::from_vec(vec![1.0, 0.5]);
        // First iteration: nothing stored, φ = g.
        let c1 = m.compensate("w", &g);
        assert_eq!(c1, g);
        // Compression dropped the second coordinate entirely.
        let dec = Tensor::from_vec(vec![1.0, 0.0]);
        m.update("w", &c1, &dec);
        assert_eq!(m.residual("w").unwrap().as_slice(), &[0.0, 0.5]);
        // Second iteration: residual is added back.
        let c2 = m.compensate("w", &g);
        assert_eq!(c2.as_slice(), &[1.0, 1.0]);
        assert!(m.is_active());
    }

    #[test]
    fn beta_gamma_weights_apply() {
        let mut m = ResidualMemory::with_decay(0.5, 2.0);
        let g = Tensor::from_vec(vec![1.0]);
        let c1 = m.compensate("w", &g);
        assert_eq!(c1.as_slice(), &[2.0]); // γ·g with no memory yet
        m.update("w", &c1, &Tensor::from_vec(vec![0.0]));
        let c2 = m.compensate("w", &g);
        // β·m + γ·g = 0.5·2 + 2·1 = 3.
        assert_eq!(c2.as_slice(), &[3.0]);
    }

    #[test]
    fn compensate_rounds_like_scale_then_axpy() {
        let mut m = ResidualMemory::with_decay(0.9, 0.7);
        let g = Tensor::from_vec((0..37).map(|i| (i as f32 * 0.37).sin()).collect());
        let mut want = g.clone();
        want.scale(0.7);
        let c = m.compensate("w", &g);
        assert_eq!(c.as_slice(), want.as_slice());
        let dec = Tensor::from_vec((0..37).map(|i| (i % 3) as f32 * 0.1).collect());
        m.update("w", &c, &dec);
        m.update("w", &c, &dec);
        let mut want = c.sub(&dec);
        assert_eq!(m.residual("w"), Some(&want));
        want.scale(0.9);
        want.axpy(0.7, &g);
        let got = m.compensate("w", &g);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn memory_is_per_tensor() {
        let mut m = ResidualMemory::new();
        let g = Tensor::from_vec(vec![1.0]);
        let c = m.compensate("a", &g);
        m.update("a", &c, &Tensor::from_vec(vec![0.0]));
        // Tensor "b" is unaffected by "a"'s residual.
        assert_eq!(m.compensate("b", &g).as_slice(), &[1.0]);
        assert!(m.residual("b").is_none());
    }

    #[test]
    fn lossless_compression_leaves_no_residual() {
        let mut m = ResidualMemory::new();
        let g = Tensor::from_vec(vec![3.0, -1.0]);
        let c = m.compensate("w", &g);
        m.update("w", &c, &c);
        assert_eq!(m.residual("w").unwrap().norm_inf(), 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot both be zero")]
    fn rejects_all_zero_weights() {
        let _ = ResidualMemory::with_decay(0.0, 0.0);
    }

    #[test]
    fn residual_norm_spans_all_tensors() {
        let mut m = ResidualMemory::new();
        assert_eq!(m.residual_norm(), Some(0.0));
        let g = Tensor::from_vec(vec![3.0]);
        let c = m.compensate("a", &g);
        m.update("a", &c, &Tensor::from_vec(vec![0.0]));
        let h = Tensor::from_vec(vec![4.0]);
        let c = m.compensate("b", &h);
        m.update("b", &c, &Tensor::from_vec(vec![0.0]));
        // √(3² + 4²) = 5.
        let norm = m.residual_norm().unwrap();
        assert!((norm - 5.0).abs() < 1e-9, "norm {norm}");
        assert_eq!(NoMemory::new().residual_norm(), None);
    }
}
