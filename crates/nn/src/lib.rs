//! From-scratch deep-learning library for the GRACE reproduction.
//!
//! The paper evaluates gradient compression while training real DNNs
//! (convolutional, recurrent, embedding-heavy) with TensorFlow/PyTorch. This
//! crate is the Rust substitute: a layer-based neural-network library with
//! manual (exact) backpropagation, the optimizers the paper uses, quality
//! metrics for all four tasks, and seeded synthetic datasets standing in for
//! CIFAR-10 / ImageNet / MovieLens / PTB / DAGM2007 (see DESIGN.md §2 for the
//! substitution argument).
//!
//! Key types:
//! - [`layer::Layer`] and the layers in [`layer`]: dense, conv2d, embedding,
//!   LSTM, activations, residual / dense-concat blocks;
//! - [`network::Network`]: a feed-forward stack with a [`loss::Loss`] head,
//!   producing *named per-layer gradient tensors* — the unit of compression
//!   in GRACE (Fig. 2 of the paper);
//! - [`optim`]: SGD, momentum, Nesterov, Adam, RMSProp, Adagrad;
//! - [`data`]: synthetic dataset generators, one per task;
//! - [`split`]: one held-out evaluation split across data-parallel ranks,
//!   with a serial evaluation's bits;
//! - [`models`]: analog architectures matching Table II's benchmark suite;
//! - [`metrics`]: top-1 accuracy, hit rate, perplexity, IoU.
//!
//! # Example
//!
//! ```
//! use grace_nn::data::{ClassificationDataset, Task};
//! use grace_nn::models;
//! use grace_nn::optim::{Optimizer, Sgd};
//!
//! let data = ClassificationDataset::synthetic(64, 16, 4, 0.3, 1);
//! let mut net = models::mlp_classifier("demo", 16, &[32], 4, 7);
//! let mut opt = Sgd::new(0.1);
//! let (x, y) = data.train_batch(&(0..32).collect::<Vec<_>>());
//! let before = net.forward_backward(&x, &y);
//! let grads = net.take_gradients();
//! net.apply_gradients(&grads, &mut opt);
//! let after = net.forward_backward(&x, &y);
//! assert!(after < before, "one SGD step should reduce the batch loss");
//! ```

pub mod checkpoint;
pub mod data;
pub mod init;
pub mod layer;
pub mod loss;
pub mod metrics;
pub mod models;
pub mod network;
pub mod optim;
pub mod schedule;
pub mod split;

pub use layer::{Layer, Param};
pub use loss::{Loss, Targets};
pub use network::Network;
