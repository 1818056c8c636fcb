//! FLOPs accounting.
//!
//! Convention (validated against the paper's Tables 7–8, see `DESIGN.md`):
//! "FLOPs of one forward propagation" = per-sample MACs × batch. Training
//! FLOPs per iteration follow the standard backward ≈ 2× forward rule, and
//! PGD-n adversarial training adds `n` forward+backward pairs for the inner
//! maximization (paper §2.2).

use fp_nn::spec::AtomSpec;
use serde::{Deserialize, Serialize};

/// Per-sample forward MACs of an atom window starting from `input_shape`.
pub fn forward_macs(atoms: &[AtomSpec], input_shape: &[usize]) -> u64 {
    forward_macs_range(atoms, input_shape, 0, atoms.len())
}

/// Per-sample forward MACs of atoms `[from, to)`; the input shape is
/// propagated from the window start.
///
/// # Panics
///
/// Panics on an invalid range.
pub fn forward_macs_range(
    atoms: &[AtomSpec],
    input_shape: &[usize],
    from: usize,
    to: usize,
) -> u64 {
    assert!(from <= to && to <= atoms.len(), "bad atom range");
    let mut shape = input_shape.to_vec();
    let mut total = 0u64;
    for (i, a) in atoms.iter().enumerate() {
        if i >= to {
            break;
        }
        if i >= from {
            total += a.macs(&shape);
        }
        shape = a.output_shape(&shape);
    }
    total
}

/// How many forward/backward passes one training iteration performs.
///
/// This is the paper's accounting for the *modelled* device: every PGD
/// step is charged a forward plus a full backward. The host running the
/// simulation executes attack passes as forward + input gradient only
/// (`fp_nn::Layer::backward_input` — no dW/db/dγ/dβ work), and the charge
/// here deliberately does not follow it: `virtual_time_s` must not move
/// when the host gets faster, so fpbench's `hwsim.predicted_over_measured`
/// rises with every such speed-up instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrainingPassProfile {
    /// PGD steps of the inner maximization (0 = standard training).
    pub pgd_steps: usize,
}

impl TrainingPassProfile {
    /// Standard (non-adversarial) training.
    pub fn standard() -> Self {
        TrainingPassProfile { pgd_steps: 0 }
    }

    /// PGD-n adversarial training (paper uses n = 10).
    pub fn adversarial(pgd_steps: usize) -> Self {
        TrainingPassProfile { pgd_steps }
    }

    /// Total forward-equivalent passes per iteration: each PGD step is one
    /// forward + one backward (2× forward), plus the final training
    /// forward + backward.
    pub fn forward_equivalents(&self) -> u64 {
        3 * (self.pgd_steps as u64) + 3
    }

    /// Memory-traffic passes per iteration (each forward and each backward
    /// sweeps the weights/activations once): `2·(pgd_steps + 1)`.
    pub fn sweep_count(&self) -> u64 {
        2 * (self.pgd_steps as u64 + 1)
    }
}

/// Training cost of one iteration over a batch, in the paper's FLOPs
/// convention (1 MAC = 1 FLOP, backward ≈ forward — the convention under
/// which Tables 7–8 reproduce): `fwd_macs · batch · sweep_count`.
///
/// `fwd_macs_per_sample` is the per-sample forward MACs of the trained
/// window (plus auxiliary head if any).
pub fn training_flops_per_iter(
    fwd_macs_per_sample: u64,
    batch: usize,
    profile: TrainingPassProfile,
) -> u64 {
    fwd_macs_per_sample * batch as u64 * profile.sweep_count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_nn::models::vgg16_spec_cifar;

    #[test]
    fn vgg16_full_forward_flops() {
        // VGG16 at 32×32 ≈ 314 M MACs/sample.
        let macs = forward_macs(&vgg16_spec_cifar(), &[3, 32, 32]);
        assert!(
            (290_000_000..340_000_000).contains(&macs),
            "vgg16 macs {macs}"
        );
    }

    #[test]
    fn range_macs_sum_to_total() {
        let specs = vgg16_spec_cifar();
        let total = forward_macs(&specs, &[3, 32, 32]);
        let a = forward_macs_range(&specs, &[3, 32, 32], 0, 5);
        let b = forward_macs_range(&specs, &[3, 32, 32], 5, specs.len());
        assert_eq!(a + b, total);
    }

    #[test]
    fn table7_module_flops() {
        // Table 7 quotes (batch 64): module1 2.6 G, module2 4.9 G (conv3-5),
        // module7 0.6 G (conv13+fc1..3). Allow ±15 %.
        let specs = vgg16_spec_cifar();
        let at = |from: usize, to: usize| forward_macs_range(&specs, &[3, 32, 32], from, to) * 64;
        let m1 = at(0, 2) as f64;
        assert!((m1 / 2.6e9 - 1.0).abs() < 0.15, "module1 {m1}");
        let m2 = at(2, 5) as f64;
        assert!((m2 / 4.9e9 - 1.0).abs() < 0.15, "module2 {m2}");
        let m7 = at(12, 16) as f64;
        assert!((m7 / 0.6e9 - 1.0).abs() < 0.15, "module7 {m7}");
    }

    #[test]
    fn adversarial_training_multiplier() {
        let st = TrainingPassProfile::standard();
        let at = TrainingPassProfile::adversarial(10);
        assert_eq!(st.forward_equivalents(), 3);
        assert_eq!(at.forward_equivalents(), 33);
        assert_eq!(st.sweep_count(), 2);
        assert_eq!(at.sweep_count(), 22);
        // PGD-10 costs 11x the passes of standard training.
        assert_eq!(
            training_flops_per_iter(100, 2, at),
            11 * training_flops_per_iter(100, 2, st)
        );
    }
}
