//! The experiment harness: one module per table/figure of the paper.
//!
//! Two kinds of experiments coexist:
//!
//! * **training experiments** (Tables 1–3, Figures 8–10) run real federated
//!   (adversarial) training on synthetic data with tiny models, at a scale
//!   set by [`Scale`];
//! * **cost-model experiments** (Figures 2, 6, 7; Tables 4, 7, 8) evaluate
//!   the full-scale VGG16/ResNet34 specs against the paper's device pools
//!   analytically — they always run at paper scale and are instant.
//!
//! The `repro` binary dispatches one experiment per subcommand and prints
//! paper-vs-measured rows.

pub mod check;
pub mod costmodel;
pub mod envs;
pub mod exp;
pub mod report;

pub use envs::{caltech_env, cifar_env, Het, Scale};
pub use report::Table;
