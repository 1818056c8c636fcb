//! FedRBN: federated robustness propagation.

use super::{fedavg_into, init_global};
use crate::engine::FlEnv;
use crate::local::train_client;
use crate::sched::ScheduledTrainer;
use fp_hwsim::{LatencyModel, TrainingPassProfile};
use fp_nn::CascadeModel;
use fp_tensor::Tensor;

/// FedRBN (Hong et al. 2023): clients whose memory budget covers full
/// end-to-end adversarial training run AT; the rest run *standard*
/// training of the same (homogeneous) model. Robustness is propagated by
/// sharing the **adversarial batch-norm statistics** of the AT clients:
/// after aggregation, the global model's BN statistics come only from AT
/// clients (when any participated).
///
/// Simplification vs. the original dual-BN design: we keep a single BN per
/// layer and overwrite its statistics with the AT-weighted average (the
/// original maintains separate clean/adversarial BNs; the propagated
/// quantity — adversarial BN statistics — is the same).
///
/// Expected Table-2 shape: high clean accuracy (most clients train clean)
/// but weak robustness under high systematic heterogeneity, because few
/// clients can afford AT.
#[derive(Debug, Clone, Copy, Default)]
pub struct FedRbn;

impl FedRbn {
    /// Creates the baseline.
    pub fn new() -> Self {
        FedRbn
    }
}

impl FedRbn {
    /// Whether client `k` can afford end-to-end adversarial training.
    fn can_afford_at(env: &FlEnv, k: usize) -> bool {
        env.mem_budget(k) >= env.full_mem_req()
    }
}

impl ScheduledTrainer for FedRbn {
    type Update = (CascadeModel, bool);
    type ServerState = CascadeModel;

    fn name(&self) -> &'static str {
        "FedRBN"
    }

    fn cost(&self, env: &FlEnv, _t: usize, k: usize) -> LatencyModel {
        // AT clients pay the full PGD inner loop; ST clients only the
        // standard forward/backward — the scheduler sees the split.
        // The dispatch payload is the full reference model — the default
        // `payload_spec` (and delta-eligible full-model downloads).
        env.full_model_cost(if Self::can_afford_at(env, k) {
            TrainingPassProfile::adversarial(env.cfg.pgd_steps)
        } else {
            TrainingPassProfile::standard()
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
    ) -> (Self::Update, f32) {
        let can_afford_at = Self::can_afford_at(env, k);
        let mut model = state.clone();
        model.set_backend(&backend);
        let loss = train_client(env, &mut model, t, k, lr, can_afford_at);
        ((model, can_afford_at), loss)
    }

    fn merge_weighted(
        &self,
        _env: &FlEnv,
        state: &mut CascadeModel,
        _t: usize,
        updates: Vec<(usize, Self::Update)>,
        weights: &[f32],
    ) {
        let results: Vec<(CascadeModel, f32, bool)> = updates
            .into_iter()
            .zip(weights)
            .map(|((_, (m, at)), &w)| (m, w, at))
            .collect();
        // Weights: plain FedAvg over everyone.
        let all: Vec<(&CascadeModel, f32)> = results.iter().map(|(m, w, _)| (m, *w)).collect();
        fedavg_into(state, &all);
        // Robustness propagation: adversarial BN statistics override.
        if let Some(stats) = at_weighted_bn(&results) {
            state.set_bn_stats(&stats);
        }
    }
}

/// Weighted-average BN statistics over adversarially trained clients only.
fn at_weighted_bn(results: &[(CascadeModel, f32, bool)]) -> Option<Vec<(Tensor, Tensor)>> {
    let at: Vec<_> = results
        .iter()
        .filter(|(_, _, adv)| *adv)
        .map(|(m, w, _)| (m.bn_stats(), *w))
        .collect();
    crate::aggregate::average_bn_stats(&at)
}

#[cfg(test)]
mod tests {
    use super::super::testenv::make_env;
    use super::*;
    use crate::engine::FlAlgorithm;

    #[test]
    fn fedrbn_runs_and_learns_clean() {
        let env = make_env(8, 13);
        let outcome = FedRbn::new().run(&env);
        let clean = outcome.final_val_clean().unwrap();
        assert!(clean > 0.4, "clean accuracy {clean} too low");
    }

    #[test]
    fn at_weighted_bn_skips_rounds_without_at_clients() {
        let env = make_env(1, 1);
        let m = super::super::init_global(&env);
        let results = vec![(m.clone(), 1.0, false), (m, 1.0, false)];
        assert!(at_weighted_bn(&results).is_none());
    }
}
