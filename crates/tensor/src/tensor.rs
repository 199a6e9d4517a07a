//! The dense `f32` tensor type.

use crate::shape::Shape;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense `f32` tensor: a contiguous value buffer plus a [`Shape`].
///
/// Gradients, parameters and compressor outputs throughout the workspace are
/// `Tensor`s. The layout is row-major.
///
/// # Example
///
/// ```
/// use grace_tensor::{Shape, Tensor};
///
/// let mut t = Tensor::zeros(Shape::vector(3));
/// t.as_mut_slice()[1] = 2.0;
/// assert_eq!(t.as_slice(), &[0.0, 2.0, 0.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor from a raw buffer and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.len()`.
    pub fn new(data: Vec<f32>, shape: Shape) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "buffer length {} does not match shape {}",
            data.len(),
            shape
        );
        Tensor { data, shape }
    }

    /// Creates a rank-1 tensor from a vector of values.
    pub fn from_vec(data: Vec<f32>) -> Self {
        let shape = Shape::vector(data.len());
        Tensor { data, shape }
    }

    /// Creates a tensor of zeros.
    pub fn zeros(shape: Shape) -> Self {
        Tensor {
            data: vec![0.0; shape.len()],
            shape,
        }
    }

    /// Creates a tensor filled with a constant value.
    pub fn filled(shape: Shape, value: f32) -> Self {
        Tensor {
            data: vec![value; shape.len()],
            shape,
        }
    }

    /// Creates a zero tensor with the same shape as `self`.
    pub fn zeros_like(&self) -> Self {
        Tensor::zeros(self.shape.clone())
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Overwrites `self` with the contents and shape of `src`, reusing the
    /// existing buffer capacity when it suffices.
    ///
    /// This is the pooled-staging primitive of the fusion pipeline: once a
    /// staging slot has grown to its steady-state size, repeated `copy_from`
    /// calls perform no allocations.
    pub fn copy_from(&mut self, src: &Tensor) {
        if self.data.len() == src.data.len() {
            self.data.copy_from_slice(&src.data);
        } else {
            self.data.clear();
            self.data.extend_from_slice(&src.data);
        }
        self.shape.clone_from(&src.shape);
    }

    /// Resizes `self` to `shape`, reusing the buffer capacity; element
    /// values after the call are unspecified (callers overwrite every slot).
    ///
    /// The pooled-accumulator primitive of the aggregation merge path: once
    /// the buffer has grown to its steady-state size, repeated `reset_for`
    /// calls perform no allocations.
    pub fn reset_for(&mut self, shape: &Shape) {
        self.data.resize(shape.len(), 0.0);
        self.shape.clone_from(shape);
    }

    /// Immutable view of the underlying buffer (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the same buffer under a different shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: Shape) -> Self {
        assert_eq!(
            self.data.len(),
            shape.len(),
            "cannot reshape {} elements into shape {}",
            self.data.len(),
            shape
        );
        self.shape = shape;
        self
    }

    /// Applies `f` to every element, in place.
    pub fn map_inplace<F: FnMut(f32) -> f32>(&mut self, mut f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new tensor with `f` applied to every element.
    pub fn map<F: FnMut(f32) -> f32>(&self, f: F) -> Self {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Elementwise `self += other`, by [`crate::simd::sum_into`]: where
    /// both are NaN, `self`'s NaN is kept.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        crate::simd::sum_into(&mut self.data, &other.data);
    }

    /// Elementwise `self -= other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn sub_assign(&mut self, other: &Tensor) {
        assert_eq!(self.len(), other.len(), "tensor length mismatch in sub");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a -= b;
        }
    }

    /// Elementwise `self += alpha * other` (axpy).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.len(), other.len(), "tensor length mismatch in axpy");
        crate::simd::axpy(&mut self.data, alpha, &other.data);
    }

    /// Multiplies every element by `alpha`, in place.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Returns `self + other` as a new tensor.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// Returns `self - other` as a new tensor.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        let mut out = self.clone();
        out.sub_assign(other);
        out
    }

    /// Inner product `<self, other>`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.len(), other.len(), "tensor length mismatch in dot");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// ℓ₀ "norm": the number of non-zero elements (`‖g‖₀` in Table I).
    pub fn norm0(&self) -> usize {
        self.data.iter().filter(|v| **v != 0.0).count()
    }

    /// ℓ₁ norm: sum of absolute values.
    pub fn norm1(&self) -> f32 {
        self.data.iter().map(|v| v.abs()).sum()
    }

    /// Euclidean (ℓ₂) norm: the square root of the serial left-fold sum of
    /// squares, whose bits [`crate::simd::sum_squares`] gives off the serial
    /// chain.
    pub fn norm2(&self) -> f32 {
        crate::simd::sum_squares(&self.data).sqrt()
    }

    /// ℓ∞ norm: largest absolute value (0 for an empty tensor).
    ///
    /// Computed as an integer max over absolute-value bit patterns, which is
    /// exact (bit-identical to the float fold on finite data, including
    /// `-0.0`) and vectorizes; see [`crate::simd::abs_max_bits`].
    pub fn norm_inf(&self) -> f32 {
        f32::from_bits(crate::simd::abs_max_bits(&self.data))
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Largest element value (−∞ for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().fold(f32::NEG_INFINITY, |m, v| m.max(*v))
    }

    /// Smallest element value (+∞ for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().fold(f32::INFINITY, |m, v| m.min(*v))
    }

    /// Whether every element is finite (no NaN / ±∞).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Splits the buffer into value/index pairs of the non-zero elements.
    pub fn nonzero(&self) -> (Vec<f32>, Vec<u32>) {
        let mut values = Vec::new();
        let mut indices = Vec::new();
        for (i, v) in self.data.iter().enumerate() {
            if *v != 0.0 {
                values.push(*v);
                indices.push(i as u32);
            }
        }
        (values, indices)
    }
}

impl Index<usize> for Tensor {
    type Output = f32;

    fn index(&self, i: usize) -> &f32 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Tensor {
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        &mut self.data[i]
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{}", self.shape)?;
        if self.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, …, {:.4}]",
                self.data[0],
                self.data[1],
                self.data[self.len() - 1]
            )
        }
    }
}

impl FromIterator<f32> for Tensor {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        Tensor::from_vec(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn new_rejects_mismatched_shape() {
        let _ = Tensor::new(vec![1.0, 2.0], Shape::vector(3));
    }

    #[test]
    fn zeros_and_filled() {
        let z = Tensor::zeros(Shape::matrix(2, 2));
        assert_eq!(z.as_slice(), &[0.0; 4]);
        let f = Tensor::filled(Shape::vector(3), 2.5);
        assert_eq!(f.as_slice(), &[2.5, 2.5, 2.5]);
    }

    #[test]
    fn norms() {
        let t = Tensor::from_vec(vec![3.0, 0.0, -4.0]);
        assert_eq!(t.norm0(), 2);
        assert_eq!(t.norm1(), 7.0);
        assert_eq!(t.norm2(), 5.0);
        assert_eq!(t.norm_inf(), 4.0);
    }

    #[test]
    fn arithmetic() {
        let a = Tensor::from_vec(vec![1.0, 2.0]);
        let b = Tensor::from_vec(vec![3.0, -1.0]);
        assert_eq!(a.add(&b).as_slice(), &[4.0, 1.0]);
        assert_eq!(a.sub(&b).as_slice(), &[-2.0, 3.0]);
        assert_eq!(a.dot(&b), 1.0);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c.as_slice(), &[7.0, 0.0]);
        c.scale(0.5);
        assert_eq!(c.as_slice(), &[3.5, 0.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 4.0, 5.0]);
        assert_eq!(t.sum(), 8.0);
        assert_eq!(t.mean(), 2.0);
        assert_eq!(t.max(), 5.0);
        assert_eq!(t.min(), -2.0);
    }

    #[test]
    fn empty_tensor_reductions_are_safe() {
        let t = Tensor::from_vec(vec![]);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.norm_inf(), 0.0);
        assert!(t.is_empty());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0]).reshape(Shape::matrix(2, 2));
        assert_eq!(t.shape(), &Shape::matrix(2, 2));
        assert_eq!(t.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_rejects_wrong_count() {
        let _ = Tensor::from_vec(vec![1.0, 2.0]).reshape(Shape::matrix(2, 2));
    }

    #[test]
    fn nonzero_extraction() {
        let t = Tensor::from_vec(vec![0.0, 1.5, 0.0, -2.0]);
        let (vals, idx) = t.nonzero();
        assert_eq!(vals, vec![1.5, -2.0]);
        assert_eq!(idx, vec![1, 3]);
    }

    #[test]
    fn map_and_indexing() {
        let mut t = Tensor::from_vec(vec![1.0, -1.0]);
        t.map_inplace(f32::abs);
        assert_eq!(t.as_slice(), &[1.0, 1.0]);
        t[0] = 9.0;
        assert_eq!(t[0], 9.0);
        let doubled = t.map(|v| 2.0 * v);
        assert_eq!(doubled[0], 18.0);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut t = Tensor::from_vec(vec![1.0, 2.0]);
        assert!(t.is_finite());
        t[1] = f32::NAN;
        assert!(!t.is_finite());
    }

    #[test]
    fn copy_from_matches_source_and_reuses_capacity() {
        let src = Tensor::new(vec![1.0, 2.0, 3.0, 4.0], Shape::matrix(2, 2));
        let mut dst = Tensor::zeros(Shape::vector(4));
        dst.copy_from(&src);
        assert_eq!(dst, src);
        let cap = dst.data.capacity();
        let smaller = Tensor::from_vec(vec![9.0, 8.0]);
        dst.copy_from(&smaller);
        assert_eq!(dst, smaller);
        assert_eq!(dst.data.capacity(), cap, "copy_from must not shrink");
    }

    #[test]
    fn from_iterator_collects() {
        let t: Tensor = (0..4).map(|i| i as f32).collect();
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn display_is_nonempty() {
        let t = Tensor::from_vec(vec![1.0; 20]);
        assert!(t.to_string().contains("Tensor"));
        let small = Tensor::from_vec(vec![1.0]);
        assert!(!small.to_string().is_empty());
    }
}
