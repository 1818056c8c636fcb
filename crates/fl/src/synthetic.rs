//! A synthetic fleet-scale workload for the schedulers.
//!
//! Fleet-scale runs (10⁵–10⁶ clients) exercise the *scheduling* fabric —
//! dispatch picking, cohort assignment, edge bundling, cache eviction —
//! not the learning. [`SyntheticTrainer`] keeps everything the
//! schedulers depend on (a real reference model for payload sizing and
//! costing, deterministic per-`(version, client)` update streams, linear
//! weighted merging) while replacing local SGD with a seeded
//! perturbation of the dispatched parameters, so a 100k-client run costs
//! milliseconds per aggregation instead of hours.
//!
//! The trainer never reads per-client data splits, which makes it
//! the intended workload for lazily-materialized environments
//! ([`crate::FlEnv::lazy`]). Updates are pure functions of
//! `(seed, version, client)`, so determinism, checkpoint/resume, and
//! thread-invariance guarantees hold exactly as for the real trainers.

use crate::engine::FlEnv;
use crate::sched::ScheduledTrainer;
use fp_hwsim::{LatencyModel, TrainingPassProfile};
use fp_nn::CascadeModel;
use fp_tensor::rng::fill_uniform;
use fp_tensor::BackendHandle;
use rand::Rng;
use std::cell::RefCell;

/// Domain-separation salt for the per-`(version, client)` update streams.
pub const SALT_SYNTH: u64 = 0x5F17_7E57;

/// The synthetic workload driver: full-model payloads, standard-pass
/// costing, seeded parameter perturbations as "updates".
#[derive(Debug, Clone, Copy, Default)]
pub struct SyntheticTrainer;

impl ScheduledTrainer for SyntheticTrainer {
    type Update = Vec<f32>;
    type ServerState = CascadeModel;

    fn name(&self) -> &'static str {
        "Synthetic"
    }

    fn cost(&self, env: &FlEnv, _t: usize, _k: usize) -> LatencyModel {
        env.full_model_cost(TrainingPassProfile::standard())
    }

    fn init(&self, env: &FlEnv) -> CascadeModel {
        let mut rng = fp_tensor::seeded_rng(env.cfg.seed);
        fp_nn::models::instantiate(
            &env.reference_specs,
            &env.input_shape,
            env.data.train.n_classes(),
            &mut rng,
        )
    }

    /// "Trains" client `k` against version `t`: the returned update is
    /// the dispatched parameters nudged toward zero plus seeded noise —
    /// shaped like a real post-SGD parameter vector, derived without a
    /// single forward pass.
    fn train(
        &self,
        env: &FlEnv,
        state: &CascadeModel,
        t: usize,
        k: usize,
        lr: f32,
        _backend: BackendHandle,
    ) -> (Vec<f32>, f32) {
        let mut rng = env.client_rng(t, k, SALT_SYNTH);
        // The noise is one bulk draw into a per-thread buffer reused across
        // calls. `fill_uniform` returns the serial `gen_range` stream bit
        // for bit and leaves `rng` where that loop would (so the loss draw
        // after it is unchanged), but computes it in eight lanes, each
        // jumped ahead to its own block of the stream by a precomputed
        // table; a block with a draw the serial loop rejects is redrawn
        // serially. Then one pass perturbs the only allocation, the update.
        thread_local! {
            static NOISE: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
        }
        let mut update = state.flat_params();
        NOISE.with(|cell| {
            let mut noise = cell.borrow_mut();
            noise.resize(update.len(), 0.0);
            fill_uniform(&mut rng, -0.01, 0.01, &mut noise);
            for (p, d) in update.iter_mut().zip(noise.iter()) {
                *p = *p * (1.0 - lr) + lr * d;
            }
        });
        let loss = 1.0 / (1.0 + t as f32) + rng.gen_range(0.0f32..0.05);
        (update, loss)
    }

    fn merge_weighted(
        &self,
        _env: &FlEnv,
        state: &mut CascadeModel,
        _t: usize,
        updates: Vec<(usize, Vec<f32>)>,
        weights: &[f32],
    ) {
        // Merges run serially on the scheduler thread every flush; the
        // accumulator is reused across flushes instead of reallocated.
        // `clear` + `resize` zeroes it, so the arithmetic (and every
        // pinned ledger) is unchanged.
        thread_local! {
            static ACC: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
        }
        ACC.with(|cell| {
            let mut acc = cell.borrow_mut();
            acc.clear();
            acc.resize(updates[0].1.len(), 0.0f32);
            let wsum: f32 = weights.iter().sum();
            for ((_, u), &w) in updates.iter().zip(weights) {
                for (a, v) in acc.iter_mut().zip(u) {
                    *a += w * v;
                }
            }
            for a in acc.iter_mut() {
                *a /= wsum;
            }
            state.set_flat_params(&acc);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::async_sched::{AsyncConfig, AsyncScheduler};
    use crate::config::FlConfig;
    use crate::sched::model_hash;
    use fp_data::{generate, SynthConfig};
    use fp_hwsim::{SamplingMode, CIFAR_POOL};
    use fp_nn::models::{vgg_atom_specs, VggConfig};

    fn lazy_env(n_clients: usize, seed: u64) -> FlEnv {
        let mut cfg = FlConfig::fast(8, seed);
        cfg.n_clients = n_clients;
        cfg.clients_per_round = 4.min(n_clients);
        let data = generate(&SynthConfig::tiny(4, 8), seed);
        let specs = vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[8, 16]));
        FlEnv::lazy(data, &CIFAR_POOL, SamplingMode::Balanced, specs, cfg)
    }

    #[test]
    fn synthetic_async_run_is_deterministic() {
        let env = lazy_env(64, 9);
        let acfg = AsyncConfig {
            concurrency: 8,
            buffer_k: 4,
            ..AsyncConfig::default()
        };
        let a = AsyncScheduler::new(SyntheticTrainer, acfg).run(&env);
        let b = AsyncScheduler::new(SyntheticTrainer, acfg).run(&env);
        assert_eq!(a.ledger, b.ledger);
        assert_eq!(model_hash(&a.model), model_hash(&b.model));
        assert_eq!(a.ledger.len(), env.cfg.rounds);
    }

    #[test]
    fn updates_are_pure_functions_of_version_and_client() {
        let env = lazy_env(8, 3);
        let st = SyntheticTrainer.init(&env);
        let (u1, l1) =
            SyntheticTrainer.train(&env, &st, 2, 5, 0.1, fp_tensor::backend_for_threads(1));
        let (u2, l2) =
            SyntheticTrainer.train(&env, &st, 2, 5, 0.1, fp_tensor::backend_for_threads(1));
        assert_eq!(u1, u2);
        assert_eq!(l1, l2);
        let (u3, _) =
            SyntheticTrainer.train(&env, &st, 2, 6, 0.1, fp_tensor::backend_for_threads(1));
        assert_ne!(u1, u3);
    }
}
