//! The paper's baseline methods (Appendix B.2).

mod distill;
mod fedrbn;
mod jfat;
mod partial;

pub use crate::submodel::SubmodelScheme;
pub use distill::{Distill, DistillState, DistillVariant};
pub use fedrbn::FedRbn;
pub use jfat::JFat;
pub use partial::PartialTraining;

use crate::engine::FlEnv;
use fp_nn::CascadeModel;

/// Weighted-averages full local models (parameters and BN statistics) into
/// `global`.
pub(crate) fn fedavg_into(global: &mut CascadeModel, locals: &[(&CascadeModel, f32)]) {
    assert!(!locals.is_empty(), "no local models");
    let flats: Vec<(Vec<f32>, f32)> = locals.iter().map(|(m, w)| (m.flat_params(), *w)).collect();
    global.set_flat_params(&crate::aggregate::weighted_average(&flats));
    let stats: Vec<_> = locals.iter().map(|(m, w)| (m.bn_stats(), *w)).collect();
    if let Some(avg) = crate::aggregate::average_bn_stats(&stats) {
        global.set_bn_stats(&avg);
    }
}

/// Builds the freshly initialized reference (global) model of an
/// environment.
pub(crate) fn init_global(env: &FlEnv) -> CascadeModel {
    let mut rng = fp_tensor::seeded_rng(env.cfg.seed ^ 0x610BA1);
    fp_nn::models::instantiate(
        &env.reference_specs,
        &env.input_shape,
        env.data.train.n_classes(),
        &mut rng,
    )
}

#[cfg(test)]
pub(crate) mod testenv {
    use super::*;
    use crate::config::FlConfig;
    use fp_data::{generate, partition_pathological, SynthConfig};
    use fp_hwsim::{sample_fleet, SamplingMode, CIFAR_POOL};
    use fp_nn::models::{vgg_atom_specs, VggConfig};

    /// A small but learnable environment shared by baseline tests.
    pub fn make_env(rounds: usize, seed: u64) -> FlEnv {
        let cfg = FlConfig::fast(rounds, seed);
        let data = generate(&SynthConfig::tiny(4, 8), seed);
        let splits = partition_pathological(&data.train, cfg.n_clients, 0.8, 0.25, seed);
        let mut rng = fp_tensor::seeded_rng(seed ^ 0xF1EE7);
        let fleet = sample_fleet(&CIFAR_POOL, cfg.n_clients, SamplingMode::Balanced, &mut rng);
        let specs = vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[8, 16]));
        FlEnv::new(data, splits, fleet, specs, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fedavg_of_identical_models_is_identity() {
        let env = testenv::make_env(1, 0);
        let global = init_global(&env);
        let mut merged = global.clone();
        fedavg_into(&mut merged, &[(&global, 0.5), (&global, 0.5)]);
        for (a, b) in merged.flat_params().iter().zip(global.flat_params()) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
