//! The compressor API (paper §IV-B).

use crate::aggregation::HomomorphicAggregate;
use crate::payload::{Payload, PayloadError, PayloadList};
use grace_tensor::simd::Fold;
use grace_tensor::{Shape, Tensor};

/// Opaque decompression context: everything `decompress` needs to restore a
/// tensor of the original shape and dtype (paper: "ctx").
#[derive(Debug, Clone, PartialEq)]
pub struct Context {
    /// Shape of the original gradient tensor.
    pub shape: Shape,
    /// Method-specific scalar metadata (norms, means, thresholds, …).
    ///
    /// These scalars travel with the payload; their bytes are charged to the
    /// data volume by the trainer (4 bytes each).
    pub meta: Vec<f32>,
}

impl Context {
    /// Context carrying only the original shape.
    pub fn shape_only(shape: Shape) -> Self {
        Context {
            shape,
            meta: Vec::new(),
        }
    }

    /// Context with shape and scalar metadata.
    pub fn with_meta(shape: Shape, meta: Vec<f32>) -> Self {
        Context { shape, meta }
    }

    /// Transmitted bytes of the metadata scalars.
    pub fn meta_bytes(&self) -> usize {
        self.meta.len() * 4
    }
}

/// Which collective the compressor's payloads travel through (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommStrategy {
    /// Payloads are dense `f32` buffers of identical size across workers and
    /// are aggregated by elementwise averaging *while compressed*
    /// (Algorithm 1 lines 8–9). Only sum-compatible methods qualify.
    Allreduce,
    /// Per-worker payloads (possibly different sizes) are gathered, each is
    /// decompressed, and `Agg` combines the results (lines 11–13).
    Allgather,
    /// The paper's third Horovod primitive. No method uses it; it runs, and
    /// the simulator charges it, as `Allgather`.
    Broadcast,
}

impl std::fmt::Display for CommStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommStrategy::Allreduce => write!(f, "Allreduce"),
            CommStrategy::Allgather => write!(f, "Allgather"),
            CommStrategy::Broadcast => write!(f, "Broadcast"),
        }
    }
}

/// A gradient compression method.
///
/// One instance lives on each worker; stateful methods (momentum in SIGNUM,
/// gradient accumulation in DGC, the reused low-rank factor in PowerSGD) key
/// their state by tensor name internally. Randomized methods own a seeded
/// RNG, so whole training runs are reproducible.
pub trait Compressor: Send {
    /// Display name including parameters, e.g. `"Topk(0.01)"`.
    fn name(&self) -> String;

    /// The collective this method's payloads travel through.
    fn strategy(&self) -> CommStrategy {
        CommStrategy::Allgather
    }

    /// Compresses one named gradient tensor into payloads + context.
    fn compress(&mut self, tensor: &Tensor, name: &str) -> (Vec<Payload>, Context);

    /// Reconstructs a dense tensor of the original shape.
    fn decompress(&mut self, payloads: &[Payload], ctx: &Context) -> Tensor;

    /// [`compress`](Self::compress) of a gradient whose buffer the caller
    /// gives up — a parameter's own, on the engine's streaming path — so a
    /// method that overrides this may move the buffer into a payload instead
    /// of copying it, leaving `tensor` empty. The default borrows it.
    fn compress_owned(&mut self, tensor: &mut Tensor, name: &str) -> (Vec<Payload>, Context) {
        self.compress(tensor, name)
    }

    /// [`decompress`](Self::decompress) of payloads the caller gives up, so
    /// a method that overrides this may move a payload's buffer into the
    /// tensor instead of copying it. The default borrows them.
    fn decompress_owned(&mut self, payloads: Vec<Payload>, ctx: &Context) -> Tensor {
        self.decompress(&payloads, ctx)
    }

    /// Folds one gathered contribution into the merge accumulator `acc` —
    /// the method's `Agg` (Algorithm 1 line 13), one contribution at a time
    /// in rank order. The merge passes [`Fold::Assign`] for the first,
    /// [`Fold::Add`] for the middle ones and [`Fold::AddScale`]`(1/n)` for
    /// the last of `n ≥ 2`, which is [`mean_of`] elementwise (a lone
    /// contribution is assigned, then scaled by `1/1`). Under `Assign`,
    /// `acc` may hold a buffer the caller lends, its contents unread. The
    /// default decodes the contribution and moves the decoded values in; a
    /// method overrides it to decode straight into `acc` in its own
    /// capacity, or to run an `Agg` other than the mean.
    ///
    /// # Panics
    ///
    /// Panics on payloads [`check_gathered`](Self::check_gathered) rejects,
    /// or if an adding pass meets an `acc` of another length.
    fn fold_gathered(
        &mut self,
        payloads: PayloadList<'_>,
        ctx: &Context,
        acc: &mut Vec<f32>,
        fold: Fold,
    ) {
        let decoded = match payloads {
            PayloadList::Owned(p) => self.decompress(p, ctx),
            PayloadList::Views(v) => {
                let owned = v.iter().map(|view| view.to_payload()).collect();
                self.decompress_owned(owned, ctx)
            }
        };
        fold.apply(acc, decoded.into_vec());
    }

    /// Checks that a gathered contribution — payloads and context scalars a
    /// peer sent — is one [`fold_gathered`](Self::fold_gathered) can fold.
    /// The merge rejects a contribution that fails before any of it folds.
    /// The default accepts everything.
    ///
    /// # Errors
    ///
    /// [`PayloadError::Malformed`] for a contribution the method cannot
    /// decode.
    fn check_gathered(&self, payloads: PayloadList<'_>, ctx: &Context) -> Result<(), PayloadError> {
        let _ = (payloads, ctx);
        Ok(())
    }

    /// Whether enabling error feedback is meaningful for this method (false
    /// for methods with built-in memory such as 1-bit SGD, DGC, EFsignSGD).
    fn supports_error_feedback(&self) -> bool {
        true
    }

    /// The [`HomomorphicAggregate`] capability: `Some` when this method's
    /// encoded form is sum-compatible and the aggregator may fold encoded
    /// payloads directly (see the contract on the trait). Default: absent.
    fn homomorphic(&mut self) -> Option<&mut dyn HomomorphicAggregate> {
        None
    }
}

/// A per-worker fleet: one compressor and one memory instance per worker.
pub type Fleet = (
    Vec<Box<dyn Compressor>>,
    Vec<Box<dyn crate::memory::Memory>>,
);

/// Elementwise mean of a non-empty tensor list.
///
/// # Panics
///
/// Panics if `parts` is empty or shapes mismatch.
pub fn mean_of(parts: Vec<Tensor>) -> Tensor {
    assert!(!parts.is_empty(), "cannot aggregate zero tensors");
    let n = parts.len() as f32;
    let mut it = parts.into_iter();
    let mut acc = it.next().expect("non-empty");
    for t in it {
        acc.add_assign(&t);
    }
    acc.scale(1.0 / n);
    acc
}

/// The no-compression baseline: ships raw `float32` gradients through
/// `Allreduce`, exactly the baseline of every figure in §V.
#[derive(Debug, Default)]
pub struct NoCompression;

impl NoCompression {
    /// Creates the baseline "compressor".
    pub fn new() -> Self {
        NoCompression
    }
}

impl Compressor for NoCompression {
    fn name(&self) -> String {
        "Baseline".to_string()
    }

    fn strategy(&self) -> CommStrategy {
        CommStrategy::Allreduce
    }

    fn compress(&mut self, tensor: &Tensor, _name: &str) -> (Vec<Payload>, Context) {
        (
            vec![Payload::F32(tensor.as_slice().to_vec())],
            Context::shape_only(tensor.shape().clone()),
        )
    }

    fn decompress(&mut self, payloads: &[Payload], ctx: &Context) -> Tensor {
        Tensor::new(payloads[0].as_f32().to_vec(), ctx.shape.clone())
    }

    /// Moves the gradient's buffer into the payload.
    fn compress_owned(&mut self, tensor: &mut Tensor, _name: &str) -> (Vec<Payload>, Context) {
        let ctx = Context::shape_only(tensor.shape().clone());
        let values = std::mem::replace(tensor, Tensor::from_vec(Vec::new())).into_vec();
        (vec![Payload::F32(values)], ctx)
    }

    /// Moves the payload's buffer into the tensor.
    fn decompress_owned(&mut self, mut payloads: Vec<Payload>, ctx: &Context) -> Tensor {
        match payloads.swap_remove(0) {
            Payload::F32(v) => Tensor::new(v, ctx.shape.clone()),
            other => panic!("expected an f32 payload, got {other:?}"),
        }
    }

    fn supports_error_feedback(&self) -> bool {
        false
    }
}

/// The baseline's dense payload over `Allgather` (the trait's default
/// strategy), so this crate's tests have a gathered method without
/// depending on `grace-compressors`.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct Gathered(NoCompression);

#[cfg(test)]
impl Compressor for Gathered {
    fn name(&self) -> String {
        "Gathered".to_string()
    }

    fn compress(&mut self, tensor: &Tensor, name: &str) -> (Vec<Payload>, Context) {
        self.0.compress(tensor, name)
    }

    fn decompress(&mut self, payloads: &[Payload], ctx: &Context) -> Tensor {
        self.0.decompress(payloads, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_accounting() {
        let ctx = Context::with_meta(Shape::vector(4), vec![1.0, 2.0]);
        assert_eq!(ctx.meta_bytes(), 8);
        assert_eq!(Context::shape_only(Shape::vector(4)).meta_bytes(), 0);
    }

    #[test]
    fn baseline_roundtrip_is_lossless() {
        let mut c = NoCompression::new();
        let g = Tensor::new(vec![1.0, -2.5, 0.0, 7.5], Shape::matrix(2, 2));
        let (p, ctx) = c.compress(&g, "w");
        assert_eq!(crate::payload::total_bytes(&p), 16); // 4 floats
        let back = c.decompress(&p, &ctx);
        assert_eq!(back, g);
        assert_eq!(c.strategy(), CommStrategy::Allreduce);
        assert!(!c.supports_error_feedback());
        assert_eq!(c.name(), "Baseline");
    }

    /// The baseline's owning calls give the same bits as the borrowing ones
    /// and move one buffer through: the gradient's into the payload, and
    /// out of it into the decoded tensor.
    #[test]
    fn baseline_owning_calls_circulate_one_buffer() {
        let mut c = NoCompression::new();
        let g = Tensor::new(vec![1.0, -2.5, 0.0, 7.5], Shape::matrix(2, 2));
        let mut lent = g.clone();
        let buffer = lent.as_slice().as_ptr();
        let (out, ctx) = c.compress_owned(&mut lent, "w");
        assert!(lent.is_empty(), "the buffer is taken");
        assert_eq!((out.clone(), ctx.clone()), c.compress(&g, "w"));
        assert_eq!(out[0].as_f32().as_ptr(), buffer, "the buffer moves in");
        let back = c.decompress_owned(out, &ctx);
        assert_eq!(back, g);
        assert_eq!(back.as_slice().as_ptr(), buffer, "the buffer moves out");
    }

    #[test]
    fn mean_aggregation() {
        let parts = vec![
            Tensor::from_vec(vec![1.0, 2.0]),
            Tensor::from_vec(vec![3.0, 6.0]),
        ];
        let m = mean_of(parts);
        assert_eq!(m.as_slice(), &[2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "zero tensors")]
    fn mean_rejects_empty() {
        let _ = mean_of(vec![]);
    }

    #[test]
    fn strategy_display() {
        assert_eq!(CommStrategy::Allreduce.to_string(), "Allreduce");
        assert_eq!(CommStrategy::Allgather.to_string(), "Allgather");
        assert_eq!(CommStrategy::Broadcast.to_string(), "Broadcast");
    }
}
