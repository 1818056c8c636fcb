//! jFAT: joint (end-to-end) federated adversarial training.

use super::{fedavg_into, init_global};
use crate::engine::FlEnv;
use crate::local::train_client;
use crate::sched::ScheduledTrainer;
use fp_hwsim::{LatencyModel, TrainingPassProfile};
use fp_nn::CascadeModel;

/// Joint federated adversarial training (Zizzo et al. 2020): every client
/// adversarially trains the **whole** model end-to-end with PGD, and the
/// server runs FedAvg.
///
/// This is the paper's accuracy/robustness gold standard; its cost is that
/// memory-constrained clients need swapping (Figure 2/7), which the
/// latency model in `fp-hwsim` charges separately.
#[derive(Debug, Clone, Copy, Default)]
pub struct JFat {
    /// Train without the adversarial inner loop (plain FedAvg). Used by
    /// ablations and Table-1 style comparisons.
    pub standard_training: bool,
}

impl JFat {
    /// The standard adversarial configuration.
    pub fn new() -> Self {
        JFat {
            standard_training: false,
        }
    }
}

impl ScheduledTrainer for JFat {
    type Update = CascadeModel;
    type ServerState = CascadeModel;

    fn name(&self) -> &'static str {
        if self.standard_training {
            "jFed (ST)"
        } else {
            "jFAT"
        }
    }

    fn cost(&self, env: &FlEnv, _t: usize, _k: usize) -> LatencyModel {
        // The dispatch payload is the full reference model — the default
        // `payload_spec` (and delta-eligible full-model downloads).
        env.full_model_cost(if self.standard_training {
            TrainingPassProfile::standard()
        } else {
            TrainingPassProfile::adversarial(env.cfg.pgd_steps)
        })
    }

    fn init(&self, env: &FlEnv) -> CascadeModel {
        init_global(env)
    }

    fn train(
        &self,
        env: &FlEnv,
        state: &CascadeModel,
        t: usize,
        k: usize,
        lr: f32,
        backend: fp_tensor::BackendHandle,
    ) -> (CascadeModel, f32) {
        let mut model = state.clone();
        model.set_backend(&backend);
        let loss = train_client(env, &mut model, t, k, lr, !self.standard_training);
        (model, loss)
    }

    fn merge_weighted(
        &self,
        _env: &FlEnv,
        state: &mut CascadeModel,
        _t: usize,
        updates: Vec<(usize, CascadeModel)>,
        weights: &[f32],
    ) {
        let weighted: Vec<(&CascadeModel, f32)> = updates
            .iter()
            .zip(weights)
            .map(|((_, m), &w)| (m, w))
            .collect();
        fedavg_into(state, &weighted);
    }
}

#[cfg(test)]
mod tests {
    use super::super::testenv::make_env;
    use super::*;
    use crate::engine::FlAlgorithm;

    #[test]
    fn jfat_learns_a_robust_model() {
        let env = make_env(10, 44);
        let outcome = JFat::new().run(&env);
        assert_eq!(outcome.history.len(), 10);
        let clean = outcome.final_val_clean().unwrap();
        let adv = outcome.final_val_adv().unwrap();
        assert!(clean > 0.5, "clean accuracy {clean} too low");
        assert!(adv > 0.3, "adversarial accuracy {adv} too low");
    }

    #[test]
    fn standard_training_gets_higher_clean_lower_adv() {
        // Table 1's premise: ST has better clean accuracy, AT better
        // robustness. With tiny budgets we only assert the robust gap.
        let env = make_env(10, 7);
        let at = JFat::new().run(&env);
        let st = JFat {
            standard_training: true,
        }
        .run(&env);
        let at_adv = at.final_val_adv().unwrap();
        let st_adv = st.final_val_adv().unwrap();
        assert!(at_adv >= st_adv, "AT robustness {at_adv} below ST {st_adv}");
    }

    /// A lazy environment holds no per-client data: the client recipe
    /// names the lazy env instead of indexing past the empty split vector.
    #[test]
    #[should_panic(expected = "read from a lazy FlEnv")]
    fn lazy_env_fails_by_name() {
        use fp_data::{generate, SynthConfig};
        use fp_hwsim::{SamplingMode, CIFAR_POOL};
        use fp_nn::models::{vgg_atom_specs, VggConfig};
        let cfg = crate::FlConfig::fast(2, 3);
        let data = generate(&SynthConfig::tiny(4, 8), 3);
        let specs = vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[8, 16]));
        let env = FlEnv::lazy(data, &CIFAR_POOL, SamplingMode::Balanced, specs, cfg);
        JFat::new().run(&env);
    }

    #[test]
    fn run_is_deterministic() {
        let env = make_env(3, 5);
        let a = JFat::new().run(&env);
        let b = JFat::new().run(&env);
        assert_eq!(a.model.flat_params(), b.model.flat_params());
    }
}
