//! Neural-network building blocks for the FedProphet reproduction.
//!
//! This crate supplies everything above raw tensors and below federated
//! orchestration:
//!
//! * [`Param`] — a trainable tensor with an accumulated gradient;
//! * [`Layer`] — the object-safe layer trait (explicit forward/backward with
//!   cached activations; input gradients are first-class because adversarial
//!   cascade learning perturbs *intermediate features*);
//! * concrete layers: [`Conv2d`], [`Linear`], [`BatchNorm2d`], [`ReLU`],
//!   [`MaxPool2d`], [`GlobalAvgPool`], [`Flatten`], [`Dropout`],
//!   [`Sequential`], and the ResNet [`BasicBlock`];
//! * [`CrossEntropyLoss`] and the [`Sgd`] optimizer with exponential LR decay;
//! * a model zoo of **cascaded atom models** ([`CascadeModel`]): VGG-style,
//!   plain CNNs and ResNets, each expressed as the `a₁ ∘ ⋯ ∘ a_L` atom
//!   sequence that FedProphet's model partitioner (paper §6.1) consumes;
//! * [`spec`] — weight-free architecture descriptions ([`LayerSpec`],
//!   [`AtomSpec`]) used by the hardware simulator to cost full-scale
//!   VGG16/ResNet34 without allocating their weights;
//! * [`delta`] — bitwise-exact sparse parameter deltas
//!   ([`param_diff`]/[`apply_param_delta`]) that size and reproduce the
//!   communication plane's delta downloads.
//!
//! Every differentiable layer is validated against central finite
//! differences in its unit tests.
//!
//! # The layer tree
//!
//! A model is a tree of leaf layers under two composites. [`Sequential`]
//! chains its children; [`BasicBlock`] is `relu(block(x) + shortcut(x))`
//! over two `Sequential`s, an empty shortcut being the identity. A
//! [`CascadeModel`] is a list of named `Sequential` atoms, and
//! FedProphet's auxiliary head is one more `Sequential`. Every walk of
//! the tree — [`Layer::params`], [`Layer::running_stats`] (batch-norm
//! running statistics), caches and backends — goes child by child in the
//! same order, so the `i`-th running-statistics pair belongs to the
//! `i`-th batch-norm layer met in `params` order.
//!
//! # Example
//!
//! ```
//! use fp_nn::{models, Mode};
//! use fp_tensor::Tensor;
//!
//! let mut rng = fp_tensor::seeded_rng(0);
//! // A tiny VGG-style cascade: 3-channel 8x8 input, 4 classes.
//! let mut model = models::tiny_vgg(3, 8, 4, &[4, 8], &mut rng);
//! let x = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
//! let logits = model.forward(&x, Mode::Eval);
//! assert_eq!(logits.shape(), &[2, 4]);
//! ```

mod cascade;
pub mod checkpoint;
pub mod delta;
mod init;
mod layer;
mod layers;
mod loss;
pub mod models;
mod optim;
mod param;
pub mod qcodec;
pub mod spec;

pub use cascade::CascadeModel;
pub use checkpoint::Checkpoint;
pub use delta::{apply_param_delta, param_diff, ParamDelta};
pub use init::{kaiming_normal, kaiming_uniform};
pub use layer::{Layer, Mode};
pub use layers::basic_block::BasicBlock;
pub use layers::bn::BatchNorm2d;
pub use layers::conv::Conv2d;
pub use layers::dropout::Dropout;
pub use layers::flatten::Flatten;
pub use layers::linear::Linear;
pub use layers::pool::{GlobalAvgPool, MaxPool2d};
pub use layers::relu::ReLU;
pub use layers::sequential::Sequential;
pub use loss::{accuracy, CrossEntropyLoss};
pub use optim::{LrSchedule, Sgd};
pub use param::Param;
pub use qcodec::QuantizedUpdate;
pub use spec::{AtomSpec, LayerSpec};

#[cfg(test)]
pub(crate) mod gradcheck;
