//! Dense tensor substrate for the GRACE reproduction.
//!
//! The paper's framework operates on layer-wise gradient tensors produced by a
//! deep-learning toolkit. This crate provides the minimal-but-complete tensor
//! machinery that every other crate in the workspace builds on:
//!
//! - [`Tensor`]: a dense `f32` tensor with an explicit [`Shape`], elementwise
//!   arithmetic, norms and reductions;
//! - [`select`]: top-k / threshold / random-k element selection plus the
//!   `sparsify`/`desparsify` helpers of the GRACE API (§IV-B);
//! - [`pack`]: bit-packing (`pack`/`unpack` helpers of the GRACE API) used by
//!   the quantization compressors for byte-exact payloads;
//! - [`linalg`]: the small dense linear algebra needed by low-rank
//!   compressors (matmul, Gram–Schmidt orthonormalization);
//! - [`simd`]: runtime-dispatched (scalar/AVX2/AVX-512) kernels for the
//!   codec and gradient-product hot paths, bit-identical across levels;
//! - [`pool`]: a per-thread intra-op pool that splits a kernel's output
//!   into disjoint ranges, bit-identical at every width;
//! - [`sketch`]: a Greenwald–Khanna quantile sketch (used by SketchML);
//! - [`rng`]: seeded RNG construction so every experiment is reproducible.
//!
//! # Example
//!
//! ```
//! use grace_tensor::Tensor;
//!
//! let g = Tensor::from_vec(vec![3.0, -4.0, 0.0, 1.0]);
//! assert_eq!(g.norm2(), (9.0f32 + 16.0 + 1.0).sqrt());
//! assert_eq!(g.norm_inf(), 4.0);
//! ```

pub mod coding;
pub mod linalg;
pub mod pack;
pub mod pool;
pub mod rng;
pub mod select;
pub mod shape;
pub mod simd;
pub mod sketch;
pub mod stats;
mod tensor;

pub use shape::Shape;
pub use tensor::Tensor;
