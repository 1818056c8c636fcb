//! jFAT: joint (end-to-end) federated adversarial training.

use super::fedavg_into;
use crate::engine::{FlAlgorithm, FlEnv};
use crate::local::{local_train, LocalTrainConfig};
use crate::metrics::FlOutcome;
use crate::sched::{EventScheduler, ModelTrainer, SchedConfig, ScheduledTrainer};
use fp_attack::PgdConfig;
use fp_hwsim::{forward_macs, LatencyModel, TrainingPassProfile};
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

impl ModelTrainer for JFat {
    type Update = CascadeModel;

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
        LatencyModel {
            mem_req_bytes: env.full_mem_req(),
            fwd_macs_per_sample: forward_macs(&env.reference_specs, &env.input_shape),
            batch: env.cfg.batch_size,
            profile: if self.standard_training {
                TrainingPassProfile::standard()
            } else {
                TrainingPassProfile::adversarial(env.cfg.pgd_steps)
            },
        }
    }

    fn train(
        &self,
        env: &FlEnv,
        global: &CascadeModel,
        t: usize,
        k: usize,
        lr: f32,
        backend: fp_tensor::BackendHandle,
    ) -> (CascadeModel, f32) {
        let cfg = &env.cfg;
        let mut model = global.clone();
        model.set_backend(&backend);
        let pgd = (!self.standard_training).then(|| PgdConfig {
            steps: cfg.pgd_steps,
            ..PgdConfig::train_linf(cfg.eps0)
        });
        let ltc = LocalTrainConfig {
            iters: cfg.local_iters,
            batch_size: cfg.batch_size,
            lr,
            momentum: cfg.momentum,
            weight_decay: cfg.weight_decay,
            pgd,
            seed: cfg.seed ^ (t as u64) << 24 ^ k as u64,
        };
        let loss = local_train(&mut model, &env.data.train, &env.splits[k].indices, &ltc);
        (model, loss)
    }

    fn merge_weighted(
        &self,
        _env: &FlEnv,
        global: &mut CascadeModel,
        _t: usize,
        updates: Vec<(usize, CascadeModel)>,
        weights: &[f32],
    ) {
        let weighted: Vec<(&CascadeModel, f32)> = updates
            .iter()
            .zip(weights)
            .map(|((_, m), &w)| (m, w))
            .collect();
        fedavg_into(global, &weighted);
    }
}

impl FlAlgorithm for JFat {
    fn name(&self) -> &'static str {
        ScheduledTrainer::name(self)
    }

    fn run(&self, env: &FlEnv) -> FlOutcome {
        // The default scheduler config (wait-all barrier, no dropout)
        // reproduces the historical lockstep loop bit-for-bit.
        EventScheduler::new(*self, SchedConfig::default())
            .run(env)
            .into_fl_outcome()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testenv::make_env;
    use super::*;

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

    #[test]
    fn run_is_deterministic() {
        let env = make_env(3, 5);
        let a = JFat::new().run(&env);
        let b = JFat::new().run(&env);
        assert_eq!(a.model.flat_params(), b.model.flat_params());
    }
}
