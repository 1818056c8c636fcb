//! Simulation configuration.

use fp_nn::LrSchedule;
use serde::{Deserialize, Serialize};

/// Hyperparameters of a federated (adversarial) training run.
///
/// Defaults follow the paper's §B.4 at reduced scale; `FlConfig::paper_*`
/// constructors give the full-scale counts.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FlConfig {
    /// Total clients `N`.
    pub n_clients: usize,
    /// Clients sampled per round `C`.
    pub clients_per_round: usize,
    /// Local SGD iterations per round `E`.
    pub local_iters: usize,
    /// Mini-batch size `B`.
    pub batch_size: usize,
    /// Learning-rate schedule (per communication round).
    pub lr: LrSchedule,
    /// SGD momentum.
    pub momentum: f32,
    /// Weight decay.
    pub weight_decay: f32,
    /// Communication rounds.
    pub rounds: usize,
    /// ℓ∞ budget on input images (`ε₀ = 8/255` in the paper).
    pub eps0: f32,
    /// PGD steps for adversarial training (paper: 10).
    pub pgd_steps: usize,
    /// Master seed.
    pub seed: u64,
}

impl FlConfig {
    /// A fast configuration for tests and CI: 8 clients, 4 per round,
    /// PGD-3, a handful of rounds.
    pub fn fast(rounds: usize, seed: u64) -> Self {
        FlConfig {
            n_clients: 8,
            clients_per_round: 4,
            local_iters: 5,
            batch_size: 16,
            lr: LrSchedule::new(0.05, 0.998),
            momentum: 0.9,
            weight_decay: 1e-4,
            rounds,
            eps0: 8.0 / 255.0,
            pgd_steps: 3,
            seed,
        }
    }

    /// The paper's CIFAR-10 configuration (§B.4): `N=100`, `C=10`, `E=30`,
    /// `B=64`, `η₀=0.005`, `γ=0.994`, PGD-10.
    pub fn paper_cifar(rounds: usize, seed: u64) -> Self {
        FlConfig {
            n_clients: 100,
            clients_per_round: 10,
            local_iters: 30,
            batch_size: 64,
            lr: LrSchedule::new(0.005, 0.994),
            momentum: 0.9,
            weight_decay: 1e-4,
            rounds,
            eps0: 8.0 / 255.0,
            pgd_steps: 10,
            seed,
        }
    }

    /// The paper's Caltech-256 configuration (§B.4): `B=32`, `η₀=0.001`.
    pub fn paper_caltech(rounds: usize, seed: u64) -> Self {
        FlConfig {
            batch_size: 32,
            lr: LrSchedule::new(0.001, 0.994),
            ..Self::paper_cifar(rounds, seed)
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on degenerate values (zero clients, `C > N`, a non-finite
    /// `eps0` or learning rate, a decay factor outside `(0, 1]`, a
    /// momentum outside `[0, 1)`, a negative weight decay, ...), naming
    /// the float field.
    pub fn validate(&self) {
        assert!(self.n_clients > 0, "need clients");
        assert!(
            self.clients_per_round > 0 && self.clients_per_round <= self.n_clients,
            "clients_per_round must be in 1..=n_clients"
        );
        assert!(self.local_iters > 0, "need local iterations");
        assert!(self.batch_size > 0, "need a positive batch size");
        assert!(self.rounds > 0, "need at least one round");
        assert!(
            self.eps0 > 0.0 && self.eps0.is_finite(),
            "FlConfig field `eps0`: need a positive, finite epsilon, got {}",
            self.eps0
        );
        let LrSchedule { eta0, gamma } = self.lr;
        assert!(
            eta0 > 0.0 && eta0.is_finite(),
            "FlConfig field `lr.eta0`: need a positive, finite learning rate, got {eta0}"
        );
        assert!(
            gamma > 0.0 && gamma <= 1.0,
            "FlConfig field `lr.gamma`: need a decay factor in (0, 1], got {gamma}"
        );
        assert!(
            (0.0..1.0).contains(&self.momentum),
            "FlConfig field `momentum`: need a momentum in [0, 1), got {}",
            self.momentum
        );
        assert!(
            self.weight_decay >= 0.0 && self.weight_decay.is_finite(),
            "FlConfig field `weight_decay`: need a non-negative, finite weight decay, got {}",
            self.weight_decay
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_match_section_b4() {
        let c = FlConfig::paper_cifar(500, 0);
        assert_eq!(c.n_clients, 100);
        assert_eq!(c.clients_per_round, 10);
        assert_eq!(c.local_iters, 30);
        assert_eq!(c.batch_size, 64);
        assert!((c.lr.eta0 - 0.005).abs() < 1e-9);
        assert!((c.lr.gamma - 0.994).abs() < 1e-9);
        let c = FlConfig::paper_caltech(500, 0);
        assert_eq!(c.batch_size, 32);
        assert!((c.lr.eta0 - 0.001).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "FlConfig field `eps0`: need a positive, finite epsilon, got inf")]
    fn validate_rejects_an_infinite_epsilon() {
        let mut c = FlConfig::fast(1, 0);
        c.eps0 = f32::INFINITY;
        c.validate();
    }

    #[test]
    #[should_panic(
        expected = "FlConfig field `lr.eta0`: need a positive, finite learning rate, got inf"
    )]
    fn validate_rejects_an_infinite_learning_rate() {
        let mut c = FlConfig::fast(1, 0);
        c.lr.eta0 = f32::INFINITY;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "FlConfig field `lr.gamma`: need a decay factor in (0, 1], got NaN")]
    fn validate_rejects_a_decay_factor_that_is_not_a_number() {
        let mut c = FlConfig::fast(1, 0);
        c.lr = LrSchedule {
            eta0: 0.05,
            gamma: f32::NAN,
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "FlConfig field `momentum`: need a momentum in [0, 1), got 1")]
    fn validate_rejects_a_momentum_of_one() {
        let mut c = FlConfig::fast(1, 0);
        c.momentum = 1.0;
        c.validate();
    }

    #[test]
    #[should_panic(
        expected = "FlConfig field `weight_decay`: need a non-negative, finite weight decay, got -0.0001"
    )]
    fn validate_rejects_a_negative_weight_decay() {
        let mut c = FlConfig::fast(1, 0);
        c.weight_decay = -1e-4;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "clients_per_round")]
    fn validate_rejects_oversampling() {
        let mut c = FlConfig::fast(1, 0);
        c.clients_per_round = 100;
        c.validate();
    }
}
