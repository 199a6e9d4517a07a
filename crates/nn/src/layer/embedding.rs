//! Embedding lookup layer.

use super::{Layer, Param};
use crate::init;
use grace_tensor::{Shape, Tensor};
use rand::rngs::StdRng;

/// An embedding table: maps integer ids (carried as `f32` values) to learned
/// vectors.
///
/// Input is `[batch, n_ids]` where each element is a non-negative integer id
/// `< vocab`; output is `[batch, n_ids · dim]` with the looked-up vectors
/// concatenated per row. The recommendation (NCF) and language-modelling
/// benchmarks of Table II are dominated by such layers — they are the reason
/// Random-k behaves pathologically there (paper §V-D (iii)).
#[derive(Debug)]
pub struct Embedding {
    name: String,
    table: Param,
    vocab: usize,
    dim: usize,
    cached_ids: Vec<usize>,
    cached_batch: usize,
    cached_n_ids: usize,
}

impl Embedding {
    /// Creates an embedding table of `vocab × dim` with `N(0, 0.05²)` entries.
    ///
    /// # Panics
    ///
    /// Panics if `vocab` or `dim` is zero.
    pub fn new(name: impl Into<String>, vocab: usize, dim: usize, rng: &mut StdRng) -> Self {
        assert!(vocab > 0 && dim > 0, "embedding dims must be positive");
        let name = name.into();
        let table = Param::new(
            format!("{name}/table"),
            init::normal(rng, Shape::matrix(vocab, dim), 0.05),
        );
        Embedding {
            name,
            table,
            vocab,
            dim,
            cached_ids: Vec::new(),
            cached_batch: 0,
            cached_n_ids: 0,
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

impl Layer for Embedding {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let (batch, n_ids) = input.shape().as_matrix();
        if training {
            self.cached_batch = batch;
            self.cached_n_ids = n_ids;
            self.cached_ids.clear();
        }
        let mut out = vec![0.0f32; batch * n_ids * self.dim];
        let table = self.table.value.as_slice();
        for (pos, &idf) in input.as_slice().iter().enumerate() {
            let id = idf as usize;
            assert!(
                idf >= 0.0 && id < self.vocab && idf.fract() == 0.0,
                "embedding '{}' got invalid id {idf} (vocab {})",
                self.name,
                self.vocab
            );
            if training {
                self.cached_ids.push(id);
            }
            let src = &table[id * self.dim..(id + 1) * self.dim];
            out[pos * self.dim..(pos + 1) * self.dim].copy_from_slice(src);
        }
        Tensor::new(out, Shape::matrix(batch, n_ids * self.dim))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert_eq!(
            grad_output.len(),
            self.cached_ids.len() * self.dim,
            "backward size mismatch in '{}'",
            self.name
        );
        let mut dtable = vec![0.0f32; self.vocab * self.dim];
        let go = grad_output.as_slice();
        for (pos, &id) in self.cached_ids.iter().enumerate() {
            let src = &go[pos * self.dim..(pos + 1) * self.dim];
            let dst = &mut dtable[id * self.dim..(id + 1) * self.dim];
            for (d, g) in dst.iter_mut().zip(src) {
                *d += g;
            }
        }
        self.table.grad = Tensor::new(dtable, Shape::matrix(self.vocab, self.dim));
        // Ids are not differentiable; propagate zeros.
        Tensor::zeros(Shape::matrix(self.cached_batch, self.cached_n_ids))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grace_tensor::rng::seeded;

    #[test]
    fn forward_looks_up_rows() {
        let mut rng = seeded(1);
        let mut e = Embedding::new("emb", 4, 2, &mut rng);
        e.visit_params(&mut |p| {
            for i in 0..8 {
                p.value[i] = i as f32;
            }
        });
        let ids = Tensor::new(vec![2.0, 0.0], Shape::matrix(1, 2));
        let out = e.forward(&ids, true);
        assert_eq!(out.shape(), &Shape::matrix(1, 4));
        assert_eq!(out.as_slice(), &[4.0, 5.0, 0.0, 1.0]);
    }

    #[test]
    fn backward_scatter_adds_duplicates() {
        let mut rng = seeded(2);
        let mut e = Embedding::new("emb", 3, 2, &mut rng);
        let ids = Tensor::new(vec![1.0, 1.0], Shape::matrix(1, 2));
        let _ = e.forward(&ids, true);
        let go = Tensor::new(vec![1.0, 2.0, 3.0, 4.0], Shape::matrix(1, 4));
        let dx = e.backward(&go);
        assert_eq!(dx.as_slice(), &[0.0, 0.0]);
        let mut grad = None;
        e.visit_params(&mut |p| grad = Some(p.grad.clone()));
        let g = grad.unwrap();
        // Row 1 accumulates both id occurrences: [1+3, 2+4].
        assert_eq!(&g.as_slice()[2..4], &[4.0, 6.0]);
        assert_eq!(&g.as_slice()[0..2], &[0.0, 0.0]);
        assert_eq!(&g.as_slice()[4..6], &[0.0, 0.0]);
    }

    #[test]
    fn gradient_is_sparse_for_small_batches() {
        let mut rng = seeded(3);
        let mut e = Embedding::new("emb", 100, 4, &mut rng);
        let ids = Tensor::new(vec![5.0, 17.0], Shape::matrix(2, 1));
        let _ = e.forward(&ids, true);
        let go = Tensor::filled(Shape::matrix(2, 4), 1.0);
        let _ = e.backward(&go);
        let mut nz = 0;
        e.visit_params(&mut |p| nz = p.grad.norm0());
        assert_eq!(nz, 8); // only two table rows touched
    }

    #[test]
    #[should_panic(expected = "invalid id")]
    fn rejects_out_of_vocab_id() {
        let mut rng = seeded(4);
        let mut e = Embedding::new("emb", 3, 2, &mut rng);
        let _ = e.forward(&Tensor::new(vec![3.0], Shape::matrix(1, 1)), true);
    }

    #[test]
    fn accessors() {
        let mut rng = seeded(5);
        let mut e = Embedding::new("emb", 7, 3, &mut rng);
        assert_eq!(e.vocab(), 7);
        assert_eq!(e.dim(), 3);
        assert_eq!(e.param_count(), 21);
    }
}
