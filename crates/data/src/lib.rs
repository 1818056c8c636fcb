//! Datasets and federated partitioning for the FedProphet reproduction.
//!
//! The paper evaluates on CIFAR-10 and Caltech-256, neither of which can be
//! shipped with this repository. Instead, [`SynthConfig`]/[`generate`]
//! produce **synthetic class-conditional image datasets**: each class gets
//! a smooth random template and samples are drawn as
//! `clamp(template + smooth noise + pixel noise)`. This preserves what the
//! paper's accuracy experiments need — a non-trivially learnable image
//! classification task with an accuracy–robustness trade-off — while being
//! fully deterministic given a seed.
//!
//! Federated splits follow the paper's protocol (§7.1, after Shah et al.
//! 2021): on each client, 80 % of the data comes from ~20 % of the classes
//! and 20 % from the rest.
//!
//! # Example
//!
//! ```
//! use fp_data::{generate, SynthConfig, partition_pathological};
//!
//! let cfg = SynthConfig::tiny(4, 8);
//! let ds = generate(&cfg, 7);
//! assert_eq!(ds.train.len(), 4 * cfg.train_per_class);
//! let parts = partition_pathological(&ds.train, 5, 0.8, 0.2, 7);
//! assert_eq!(parts.len(), 5);
//! ```

mod dataset;
mod loader;
mod partition;
mod synth;

pub use dataset::Dataset;
pub use loader::BatchIter;
pub use partition::{partition_iid, partition_pathological, ClientSplit};
pub use synth::{generate, SynthConfig, SynthDataset};
