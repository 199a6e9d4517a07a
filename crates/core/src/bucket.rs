//! Tensor-fusion bucket planning for the pipelined exchange.
//!
//! Horovod-style tensor fusion groups gradient tensors into byte-threshold
//! buckets so per-message collective latency (α) is paid per *bucket*, not
//! per tensor, and so compression of a sealed bucket can start while
//! backprop is still producing the next one (paper §V-D: overlap, not
//! ratio, converts compression into wall-clock wins).
//!
//! A [`BucketPlan`] is a frozen description of one step's gradient stream —
//! tensor names, element counts, and bucket boundaries — built once by a
//! [`PlanBuilder`] from the first observed stream and reused (and verified)
//! on every later step. Boundaries depend only on the dense byte sizes in
//! submission order, so every worker derives the **identical** plan and the
//! session stays bit-identical at any fusion threshold (the PR-2 equivalence
//! contract).
//!
//! The stream arrives in **reverse layer order**: backprop finishes the
//! deepest layers first, so emitting their gradients immediately gives the
//! compressor the longest window to hide its work under the remaining
//! backward pass.

use std::ops::Range;

/// Default fusion threshold: 2 MiB of dense `f32` gradient per bucket
/// (Horovod's default fusion buffer size).
pub const DEFAULT_FUSION_BYTES: usize = 2 << 20;

/// Frozen bucket layout of one step's gradient stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketPlan {
    names: Vec<String>,
    elements: Vec<usize>,
    /// Exclusive end tensor index of each bucket, ascending; the last entry
    /// equals the tensor count.
    bucket_ends: Vec<usize>,
    fusion_bytes: usize,
}

impl BucketPlan {
    /// Number of tensors in the stream.
    pub fn n_tensors(&self) -> usize {
        self.names.len()
    }

    /// Number of fusion buckets.
    pub fn n_buckets(&self) -> usize {
        self.bucket_ends.len()
    }

    /// The byte threshold the plan was built with.
    pub fn fusion_bytes(&self) -> usize {
        self.fusion_bytes
    }

    /// The name of tensor `idx`.
    pub fn name(&self, idx: usize) -> &str {
        &self.names[idx]
    }

    /// Element count of tensor `idx`.
    pub fn elements(&self, idx: usize) -> usize {
        self.elements[idx]
    }

    /// Tensor-index range of bucket `b`.
    pub fn bucket_range(&self, b: usize) -> Range<usize> {
        let start = if b == 0 { 0 } else { self.bucket_ends[b - 1] };
        start..self.bucket_ends[b]
    }

    /// The bucket holding tensor `idx`.
    pub fn bucket_of(&self, idx: usize) -> usize {
        assert!(idx < self.n_tensors(), "tensor index out of range");
        self.bucket_ends.partition_point(|&end| end <= idx)
    }

    /// Total gradient elements in bucket `b`.
    pub fn bucket_elements(&self, b: usize) -> usize {
        self.bucket_range(b).map(|i| self.elements[i]).sum()
    }

    /// Whether slot `idx` matches a submitted tensor exactly.
    pub fn matches(&self, idx: usize, name: &str, elements: usize) -> bool {
        idx < self.n_tensors() && self.elements[idx] == elements && self.names[idx] == name
    }
}

/// Incremental [`BucketPlan`] construction from an observed stream.
///
/// Boundaries follow Horovod's fusion-buffer rule: a tensor that would push
/// the open bucket past the threshold seals the bucket first (so buckets
/// never exceed the threshold except when a single tensor alone does).
#[derive(Debug)]
pub struct PlanBuilder {
    fusion_bytes: usize,
    names: Vec<String>,
    elements: Vec<usize>,
    bucket_ends: Vec<usize>,
    /// Open-bucket fill in bytes (u128: `usize::MAX` thresholds must never
    /// saturate into a spurious seal).
    current: u128,
}

impl PlanBuilder {
    /// Starts a builder with the given byte threshold.
    ///
    /// # Panics
    ///
    /// Panics if `fusion_bytes` is zero.
    pub fn new(fusion_bytes: usize) -> Self {
        assert!(fusion_bytes > 0, "fusion threshold must be positive");
        PlanBuilder {
            fusion_bytes,
            names: Vec::new(),
            elements: Vec::new(),
            bucket_ends: Vec::new(),
            current: 0,
        }
    }

    /// Appends one tensor to the stream. Returns `Some(bucket_index)` when
    /// this push sealed the previously open bucket.
    pub fn push(&mut self, name: &str, elements: usize) -> Option<usize> {
        let bytes = 4u128 * elements as u128;
        let mut sealed = None;
        if self.current > 0 && self.current + bytes > self.fusion_bytes as u128 {
            self.bucket_ends.push(self.names.len());
            sealed = Some(self.bucket_ends.len() - 1);
            self.current = 0;
        }
        self.names.push(name.to_string());
        self.elements.push(elements);
        self.current += bytes;
        sealed
    }

    /// Tensors pushed so far.
    pub fn n_tensors(&self) -> usize {
        self.names.len()
    }

    /// Seals the trailing partial bucket and freezes the plan.
    pub fn finish(mut self) -> BucketPlan {
        if self.bucket_ends.last().copied() != Some(self.names.len()) && !self.names.is_empty() {
            self.bucket_ends.push(self.names.len());
        }
        BucketPlan {
            names: self.names,
            elements: self.elements,
            bucket_ends: self.bucket_ends,
            fusion_bytes: self.fusion_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_of(fusion_bytes: usize, sizes: &[usize]) -> BucketPlan {
        let mut b = PlanBuilder::new(fusion_bytes);
        for (i, &s) in sizes.iter().enumerate() {
            b.push(&format!("t{i}"), s);
        }
        b.finish()
    }

    #[test]
    fn fusion_one_isolates_every_tensor() {
        let p = plan_of(1, &[3, 5, 2]);
        assert_eq!(p.n_buckets(), 3);
        for i in 0..3 {
            assert_eq!(p.bucket_range(i), i..i + 1);
            assert_eq!(p.bucket_of(i), i);
        }
    }

    #[test]
    fn fusion_max_is_one_bucket() {
        let p = plan_of(usize::MAX, &[3, 5, 2, 1000]);
        assert_eq!(p.n_buckets(), 1);
        assert_eq!(p.bucket_range(0), 0..4);
        assert_eq!(p.bucket_elements(0), 1010);
    }

    #[test]
    fn greedy_fill_seals_before_overflow() {
        // Threshold 40 bytes = 10 elements; sizes 4+4 fit, 6 would overflow.
        let p = plan_of(40, &[4, 4, 6, 12, 1]);
        assert_eq!(p.n_buckets(), 4);
        assert_eq!(p.bucket_range(0), 0..2); // 4+4 = 32 bytes
        assert_eq!(p.bucket_range(1), 2..3); // 6 alone (24 bytes, 12 would overflow)
        assert_eq!(p.bucket_range(2), 3..4); // 12 (48 bytes) exceeds the threshold alone
        assert_eq!(p.bucket_range(3), 4..5);
        assert_eq!(p.bucket_of(1), 0);
        assert_eq!(p.bucket_of(2), 1);
        assert_eq!(p.bucket_of(4), 3);
    }

    #[test]
    fn oversized_tensor_gets_its_own_bucket() {
        let p = plan_of(8, &[100, 1, 100]);
        assert_eq!(p.n_buckets(), 3);
        assert_eq!(p.bucket_range(0), 0..1);
        assert_eq!(p.bucket_range(1), 1..2);
        assert_eq!(p.bucket_range(2), 2..3);
    }

    #[test]
    fn seal_events_fire_as_buckets_close() {
        let mut b = PlanBuilder::new(16);
        assert_eq!(b.push("a", 4), None); // 16 bytes, bucket open at capacity
        assert_eq!(b.push("b", 1), Some(0)); // would overflow: seals bucket 0
        assert_eq!(b.push("c", 1), None);
        let p = b.finish();
        assert_eq!(p.n_buckets(), 2);
        assert_eq!(p.bucket_range(1), 1..3);
    }

    #[test]
    fn empty_plan_is_valid() {
        let p = PlanBuilder::new(64).finish();
        assert_eq!(p.n_tensors(), 0);
        assert_eq!(p.n_buckets(), 0);
    }

    #[test]
    #[should_panic(expected = "fusion threshold must be positive")]
    fn zero_threshold_rejected() {
        let _ = PlanBuilder::new(0);
    }
}
