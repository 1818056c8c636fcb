//! Partial-training baselines: HeteroFL-AT, FedDrop-AT, FedRolex-AT.

use super::init_global;
use crate::engine::FlEnv;
use crate::local::train_client;
use crate::sched::ScheduledTrainer;
use crate::submodel::{
    channel_groups, extract_submodel, keep_sets, slice_specs, submodel_params, SubmodelAccumulator,
    SubmodelScheme,
};
use fp_hwsim::{
    forward_macs, param_transfer_bytes, LatencyModel, PayloadSpec, TrainingPassProfile,
};
use fp_nn::CascadeModel;
use fp_tensor::seeded_rng;
use std::collections::HashMap;

/// Shape-fingerprint salt for width-sliced submodel payloads.
const SHAPE_SALT: u64 = 0x51_1CE5;

/// Partial-training federated adversarial training: each client trains a
/// width-sliced sub-model sized to its memory budget
/// (`ratio = R_k / R_max`, Appendix B.2) and the server partial-averages
/// the updates (Eq. 16).
///
/// The [`SubmodelScheme`] selects the baseline: `Static` = HeteroFL,
/// `Rolling` = FedRolex, `Random` = FedDrop.
#[derive(Debug, Clone, Copy)]
pub struct PartialTraining {
    /// Channel-selection scheme.
    pub scheme: SubmodelScheme,
}

impl PartialTraining {
    /// HeteroFL-AT.
    pub fn heterofl() -> Self {
        PartialTraining {
            scheme: SubmodelScheme::Static,
        }
    }

    /// FedRolex-AT.
    pub fn fedrolex() -> Self {
        PartialTraining {
            scheme: SubmodelScheme::Rolling,
        }
    }

    /// FedDrop-AT.
    pub fn feddrop() -> Self {
        PartialTraining {
            scheme: SubmodelScheme::Random,
        }
    }
}

impl PartialTraining {
    /// The width ratio client `k` trains at (`R_k / R_max`, Appendix
    /// B.2).
    fn ratio(env: &FlEnv, k: usize) -> f32 {
        ((env.mem_budget(k) as f64 / env.full_mem_req() as f64) as f32).clamp(0.1, 1.0)
    }

    /// Client `k`'s round-`t` keep sets, and the RNG stream after their
    /// draw (what `train`'s submodel extraction draws from) — shared by
    /// `payload_spec`, `payload_params` and `train`, so the payload the
    /// server diffs is bit-identical to the submodel the client trains.
    fn keep(
        &self,
        env: &FlEnv,
        t: usize,
        k: usize,
    ) -> (HashMap<usize, Vec<usize>>, rand::rngs::StdRng) {
        let groups = channel_groups(&env.reference_specs);
        let mut rng = seeded_rng(env.cfg.seed ^ 0x5B_0000 ^ (t as u64) << 20 ^ k as u64);
        let keep = keep_sets(&groups, Self::ratio(env, k), self.scheme, t, &mut rng);
        (keep, rng)
    }

    /// Fingerprint of the keep-set shape of client `k`'s round-`t`
    /// payload. A delta download is only valid when the client's cached
    /// slice has the same channels: the `Static` scheme keeps one slice
    /// per ratio forever (delta-eligible round over round), `Rolling`
    /// shifts every round and `Random` redraws per `(round, client)` —
    /// their fingerprints change, forcing full windows.
    fn shape_id(&self, env: &FlEnv, t: usize, k: usize) -> u64 {
        let mut h = SHAPE_SALT ^ Self::ratio(env, k).to_bits() as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
        h ^= match self.scheme {
            SubmodelScheme::Static => 0,
            SubmodelScheme::Rolling => 1 + t as u64,
            SubmodelScheme::Random => ((1 + t as u64) << 20) | ((k as u64 + 1) << 1),
        };
        // Checkpoint JSON carries integers as exact-to-2^53 numbers, so
        // fingerprints stay within 48 bits; `| 1` keeps clear of
        // FULL_SHAPE.
        (h | 1) & 0xFFFF_FFFF_FFFF
    }
}

impl ScheduledTrainer for PartialTraining {
    type Update = (CascadeModel, HashMap<usize, Vec<usize>>);
    type ServerState = CascadeModel;

    fn name(&self) -> &'static str {
        match self.scheme {
            SubmodelScheme::Static => "HeteroFL-AT",
            SubmodelScheme::Rolling => "FedRolex-AT",
            SubmodelScheme::Random => "FedDrop-AT",
        }
    }

    fn cost(&self, env: &FlEnv, _t: usize, k: usize) -> LatencyModel {
        // Width slicing keeps a `ratio` fraction of every hidden channel
        // group, so memory scales ≈ linearly and MACs ≈ quadratically in
        // the ratio (both conv operands shrink).
        let ratio = Self::ratio(env, k) as f64;
        let full_macs = forward_macs(&env.reference_specs, &env.input_shape) as f64;
        LatencyModel {
            mem_req_bytes: (ratio * env.full_mem_req() as f64) as u64,
            fwd_macs_per_sample: (ratio * ratio * full_macs) as u64,
            batch: env.cfg.batch_size,
            profile: TrainingPassProfile::adversarial(env.cfg.pgd_steps),
        }
    }

    fn payload_spec(&self, env: &FlEnv, t: usize, k: usize) -> PayloadSpec {
        // Only the kept slice crosses the wire. The byte count is the
        // *exact* serialized size of the sliced specs — the same slice
        // `payload_params` materializes — not the historical ratio²
        // approximation, so narrow clients delta correctly too.
        let sliced = slice_specs(&env.reference_specs, &self.keep(env, t, k).0);
        PayloadSpec::window(param_transfer_bytes(&sliced), self.shape_id(env, t, k))
    }

    fn payload_params(&self, env: &FlEnv, state: &CascadeModel, t: usize, k: usize) -> Vec<f32> {
        // The exact parameters the client materializes: its keep-set
        // slice of the global model, drawn from the same RNG stream `train`
        // uses — so diffing two versions of the same slice is exact.
        submodel_params(state, &self.keep(env, t, k).0)
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
        let (keep, mut rng) = self.keep(env, t, k);
        let mut sub = extract_submodel(state, &keep, &mut rng);
        sub.set_backend(&backend);
        let loss = train_client(env, &mut sub, t, k, lr, true);
        ((sub, keep), loss)
    }

    fn merge_weighted(
        &self,
        _env: &FlEnv,
        state: &mut CascadeModel,
        _t: usize,
        updates: Vec<(usize, Self::Update)>,
        weights: &[f32],
    ) {
        let mut acc = SubmodelAccumulator::new(state);
        for ((_, (sub, keep)), &w) in updates.iter().zip(weights) {
            acc.add(sub, keep, w);
        }
        acc.apply(state);
    }
}

#[cfg(test)]
mod tests {
    use super::super::testenv::make_env;
    use super::*;
    use crate::engine::FlAlgorithm;

    #[test]
    fn all_three_schemes_run_and_learn() {
        for alg in [
            PartialTraining::heterofl(),
            PartialTraining::fedrolex(),
            PartialTraining::feddrop(),
        ] {
            let env = make_env(8, 21);
            let outcome = alg.run(&env);
            let clean = outcome.final_val_clean().unwrap();
            assert!(
                clean > 0.3,
                "{} failed to learn: clean {clean}",
                ScheduledTrainer::name(&alg)
            );
        }
    }

    /// The declared payload bytes must equal the serialized size of the
    /// exact parameter slice the client ships (4 bytes per f32).
    #[test]
    fn payload_spec_bytes_are_exact() {
        let env = make_env(8, 33);
        let global = init_global(&env);
        for alg in [
            PartialTraining::heterofl(),
            PartialTraining::fedrolex(),
            PartialTraining::feddrop(),
        ] {
            for t in 0..3 {
                for k in 0..env.cfg.n_clients {
                    let spec = ScheduledTrainer::payload_spec(&alg, &env, t, k);
                    let params = ScheduledTrainer::payload_params(&alg, &env, &global, t, k);
                    assert_eq!(
                        spec.bytes,
                        params.len() as u64 * 4,
                        "{} t={t} k={k}",
                        ScheduledTrainer::name(&alg)
                    );
                }
            }
        }
    }

    #[test]
    fn scheme_names_match_paper() {
        assert_eq!(
            ScheduledTrainer::name(&PartialTraining::heterofl()),
            "HeteroFL-AT"
        );
        assert_eq!(
            ScheduledTrainer::name(&PartialTraining::fedrolex()),
            "FedRolex-AT"
        );
        assert_eq!(
            ScheduledTrainer::name(&PartialTraining::feddrop()),
            "FedDrop-AT"
        );
    }
}
