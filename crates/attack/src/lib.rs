//! Adversarial attacks and robustness evaluation.
//!
//! Implements the attack suite the paper trains and evaluates with:
//!
//! * [`fgsm`] — single-step fast gradient sign method;
//! * [`Pgd`] — projected gradient descent (paper's PGD-10 for training,
//!   PGD-20 for evaluation), under ℓ∞ or ℓ2 constraints ([`NormBall`]),
//!   with random starts and restarts;
//! * [`Apgd`] — an AutoAttack substitute: momentum-accelerated PGD with
//!   adaptive step halving and multiple restarts (the real four-attack
//!   AutoAttack ensemble has no Rust implementation; this surrogate is
//!   strictly stronger than our PGD-20 evaluation, preserving the paper's
//!   `Clean ≥ PGD ≥ AA` ordering);
//! * [`evaluate_robustness`] — clean / PGD / APGD accuracy of a model over
//!   a dataset.
//!
//! Attacks operate on **any differentiable target** through the
//! [`AttackTarget`] trait, which is what lets adversarial *cascade*
//! learning perturb intermediate features `z_{m−1}` (paper §5.1) with the
//! same code that perturbs input images.

mod apgd;
mod eval;
mod pgd;
mod target;

pub use apgd::{Apgd, ApgdConfig};
pub use eval::{
    clean_accuracy, evaluate_robustness, split_accuracy, RobustnessReport, SplitAccuracy,
    SplitModel,
};
pub use pgd::{fgsm, poison_params, NormBall, Pgd, PgdConfig};
pub use target::{AttackTarget, ModelTarget};
