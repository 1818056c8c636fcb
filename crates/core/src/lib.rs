//! **FedProphet**: memory-efficient federated adversarial training via
//! robust and consistent cascade learning (Tang et al., MLSys 2025).
//!
//! The framework has a client side and a server side (paper Figure 3):
//!
//! *Client side* — [`trainer`]: **adversarial cascade learning with strong
//! convexity regularization** (§5.1, Eq. 9). A large backbone is trained
//! module-by-module; each module is attacked at its *input feature*
//! `z_{m−1}` (PGD in an ℓ2 ball of radius `ε_{m−1}`, ℓ∞ at the image
//! input) and optimized on the early-exit loss of a linear auxiliary head
//! ([`AuxHead`]) plus the `µ/2·‖z_m‖²` regularizer that makes the loss
//! strongly convex in `z_m` — the sufficient condition for backbone
//! robustness (Proposition 1 + Lemma 1) that simultaneously bounds the
//! objective inconsistency (Lemma 2).
//!
//! *Server side*:
//!
//! * [`partition`] — the memory-constrained greedy model partitioner
//!   (Algorithm 1): groups atoms into the fewest modules whose training
//!   memory (including the auxiliary head) fits the minimum reserved
//!   memory `R_min`;
//! * [`apa`] — **Adaptive Perturbation Adjustment** (§6.2, Eq. 11–12):
//!   scales `ε_{m−1} = α·E[max‖Δz_{m−1}‖]` and walks `α` to keep the
//!   clean/adversarial accuracy ratio near the previous module's;
//! * [`dma`] — **Differentiated Module Assignment** (§6.3, Eq. 14–15):
//!   "prophet" clients with spare memory and FLOPs train extra future
//!   modules jointly, under a hard synchronization-time constraint;
//! * [`algorithm`] — the full federated loop (Algorithm 2) with
//!   partial-average aggregation of modules (Eq. 16) and auxiliary heads
//!   (Eq. 17), per-module convergence with early stopping, and per-round
//!   latency accounting against the `fp-hwsim` device fleet.
//!
//! # Example
//!
//! ```no_run
//! use fedprophet::{FedProphet, ProphetConfig};
//! use fp_fl::FlAlgorithm;
//! # fn env() -> fp_fl::FlEnv { unimplemented!() }
//!
//! let env = env(); // data splits + device fleet + hyperparameters
//! let outcome = FedProphet::new(ProphetConfig::default()).run(&env);
//! println!("adv acc: {:?}", outcome.final_val_adv());
//! ```

pub mod algorithm;
pub mod apa;
mod aux_head;
pub mod dma;
mod module_target;
pub mod partition;
pub mod trainer;

pub use algorithm::{FedProphet, ProphetConfig, ProphetOutcome, ProphetRound};
pub use apa::Apa;
pub use aux_head::AuxHead;
pub use dma::{assign_modules, ModuleAssignment};
pub use module_target::ModuleTarget;
pub use partition::{partition_model, ModulePartition};
pub use trainer::{max_feature_perturbation, train_module_window, WindowTrainConfig};
