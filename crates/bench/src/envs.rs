//! Experiment environments.

use fp_data::{generate, partition_pathological, SynthConfig};
use fp_fl::{FlConfig, FlEnv};
use fp_hwsim::{sample_fleet, SamplingMode, CALTECH_POOL, CIFAR_POOL};
use fp_nn::models::{vgg_atom_specs, VggConfig};
use fp_nn::spec::AtomSpec;
use fp_nn::LrSchedule;

/// Training-experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale: tiny models, few rounds. Default for tests.
    Fast,
    /// Minutes-scale: wider models, more clients and rounds.
    Medium,
    /// Paper-shaped counts (`N=100`, `C=10`, `E=30`, PGD-10). Hours on a
    /// CPU; for unattended runs.
    Full,
}

/// Systematic heterogeneity (paper §7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Het {
    /// Devices sampled uniformly.
    Balanced,
    /// Weak devices over-sampled.
    Unbalanced,
}

impl Het {
    fn mode(self) -> SamplingMode {
        match self {
            Het::Balanced => SamplingMode::Balanced,
            Het::Unbalanced => SamplingMode::Unbalanced,
        }
    }
}

/// The trainable stand-in for "VGG16 on CIFAR-10": a VGG-style cascade on
/// the CIFAR-shaped synthetic dataset, which substitutes for CIFAR-10.
pub fn cifar_env(scale: Scale, het: Het, seed: u64) -> FlEnv {
    let (cfg, data_cfg, widths, hw) = match scale {
        Scale::Fast => (
            FlConfig::fast(10, seed),
            SynthConfig::tiny(4, 8),
            vec![8usize, 16, 24],
            8usize,
        ),
        Scale::Medium => (
            FlConfig {
                n_clients: 20,
                clients_per_round: 5,
                local_iters: 10,
                batch_size: 32,
                lr: LrSchedule::new(0.03, 0.996),
                momentum: 0.9,
                weight_decay: 1e-4,
                rounds: 40,
                eps0: 8.0 / 255.0,
                pgd_steps: 5,
                seed,
            },
            SynthConfig {
                n_classes: 8,
                channels: 3,
                hw: 16,
                train_per_class: 120,
                test_per_class: 30,
                smooth_noise: 0.35,
                pixel_noise: 0.08,
                grid: 4,
            },
            vec![12usize, 24, 32, 48],
            16usize,
        ),
        Scale::Full => (
            FlConfig::paper_cifar(500, seed),
            SynthConfig::cifar_like(),
            vec![16usize, 32, 64, 96, 128],
            32usize,
        ),
    };
    build_env(cfg, data_cfg, widths, hw, &CIFAR_POOL, het, seed)
}

/// The trainable stand-in for "ResNet34 on Caltech-256": a deeper cascade
/// on the many-class synthetic dataset at reduced resolution.
pub fn caltech_env(scale: Scale, het: Het, seed: u64) -> FlEnv {
    let (cfg, data_cfg, widths, hw) = match scale {
        Scale::Fast => (
            FlConfig::fast(10, seed),
            SynthConfig::tiny(8, 8),
            vec![8usize, 16, 24],
            8usize,
        ),
        Scale::Medium => (
            FlConfig {
                n_clients: 20,
                clients_per_round: 5,
                local_iters: 10,
                batch_size: 32,
                lr: LrSchedule::new(0.02, 0.996),
                momentum: 0.9,
                weight_decay: 1e-4,
                rounds: 40,
                eps0: 8.0 / 255.0,
                pgd_steps: 5,
                seed,
            },
            SynthConfig {
                n_classes: 16,
                channels: 3,
                hw: 16,
                train_per_class: 60,
                test_per_class: 15,
                smooth_noise: 0.4,
                pixel_noise: 0.08,
                grid: 4,
            },
            vec![12usize, 24, 32, 48],
            16usize,
        ),
        Scale::Full => (
            FlConfig::paper_caltech(500, seed),
            SynthConfig::caltech_like(),
            vec![16usize, 32, 64, 96, 128],
            32usize,
        ),
    };
    build_env(cfg, data_cfg, widths, hw, &CALTECH_POOL, het, seed)
}

fn build_env(
    cfg: FlConfig,
    mut data_cfg: SynthConfig,
    widths: Vec<usize>,
    hw: usize,
    pool: &[fp_hwsim::Device],
    het: Het,
    seed: u64,
) -> FlEnv {
    data_cfg.hw = hw;
    let data = generate(&data_cfg, seed);
    let splits = partition_pathological(&data.train, cfg.n_clients, 0.8, 0.2, seed);
    let mut rng = fp_tensor::seeded_rng(seed ^ 0xF1EE7);
    let fleet = sample_fleet(pool, cfg.n_clients, het.mode(), &mut rng);
    let n_classes = data.train.n_classes();
    let specs = reference_specs(3, hw, n_classes, &widths);
    FlEnv::new(data, splits, fleet, specs, cfg)
}

/// A lazily-materialized fleet-scale environment: `n_clients` clients
/// whose devices, availability, and FedAvg weights derive on demand from
/// `(seed, id)`, so building the env is O(1) in the fleet size. Pairs
/// with [`fp_fl::SyntheticTrainer`] for 10⁵–10⁶-client scheduler runs.
pub fn fleet_env(n_clients: usize, rounds: usize, seed: u64) -> FlEnv {
    let mut cfg = FlConfig::fast(rounds, seed);
    cfg.n_clients = n_clients;
    cfg.clients_per_round = 4;
    let data = generate(&SynthConfig::tiny(4, 8), seed);
    let specs = reference_specs(3, 8, data.train.n_classes(), &[8, 16]);
    FlEnv::lazy(data, &CIFAR_POOL, SamplingMode::Balanced, specs, cfg)
}

/// The reference backbone for an environment: a VGG-style cascade of the
/// given widths (one conv atom per stage).
pub fn reference_specs(
    in_channels: usize,
    hw: usize,
    n_classes: usize,
    widths: &[usize],
) -> Vec<AtomSpec> {
    vgg_atom_specs(&VggConfig::tiny(in_channels, hw, n_classes, widths))
}

/// The hidden-stage widths of an environment's reference backbone,
/// recovered from its channel groups (in cascade order).
pub fn widths_of(env: &FlEnv) -> Vec<usize> {
    use fp_nn::spec::{GROUP_INPUT, GROUP_OUTPUT};
    fp_fl::submodel::channel_groups(&env.reference_specs)
        .iter()
        .filter(|&(&g, _)| g != GROUP_INPUT && g != GROUP_OUTPUT)
        .map(|(_, &c)| c)
        .collect()
}

/// A smaller "CNN3-like" backbone (Table 1's small model): half the
/// stages at half the width.
pub fn small_specs(
    in_channels: usize,
    hw: usize,
    n_classes: usize,
    widths: &[usize],
) -> Vec<AtomSpec> {
    let half: Vec<usize> = widths
        .iter()
        .take(widths.len().div_ceil(2))
        .map(|w| (w / 2).max(2))
        .collect();
    // Fewer stages need a shallower pool pyramid; tiny config handles it.
    vgg_atom_specs(&VggConfig::tiny(in_channels, hw, n_classes, &half))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_envs_build() {
        let e = cifar_env(Scale::Fast, Het::Balanced, 0);
        assert_eq!(e.cfg.n_clients, 8);
        let e = caltech_env(Scale::Fast, Het::Unbalanced, 0);
        assert!(e.data.train.n_classes() >= 8);
    }

    #[test]
    fn medium_env_has_more_clients() {
        let e = cifar_env(Scale::Medium, Het::Balanced, 1);
        assert_eq!(e.cfg.n_clients, 20);
        assert_eq!(e.input_shape, vec![3, 16, 16]);
    }

    #[test]
    fn small_specs_are_smaller() {
        let big = reference_specs(3, 16, 8, &[12, 24, 32, 48]);
        let small = small_specs(3, 16, 8, &[12, 24, 32, 48]);
        let pb: usize = big.iter().map(|a| a.param_count()).sum();
        let ps: usize = small.iter().map(|a| a.param_count()).sum();
        assert!(ps * 3 < pb, "small {ps} vs big {pb}");
    }
}
