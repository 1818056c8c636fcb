//! The local training loop shared by all baselines.

use crate::engine::FlEnv;
use fp_attack::{ModelTarget, Pgd, PgdConfig};
use fp_data::{BatchIter, Dataset};
use fp_nn::{CascadeModel, CrossEntropyLoss, Mode, Sgd};
use fp_tensor::seeded_rng;

/// Configuration for one client's local training in one round.
#[derive(Debug, Clone, Copy)]
pub struct LocalTrainConfig {
    /// Number of SGD iterations `E`.
    pub iters: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate for this round.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Weight decay.
    pub weight_decay: f32,
    /// Adversarial training attack; `None` = standard training.
    pub pgd: Option<PgdConfig>,
    /// Seed (vary per client and round for decorrelated batches).
    pub seed: u64,
}

/// Trains `model` in place on the client's local samples and returns the
/// mean training loss.
///
/// Adversarial mode follows the paper's FAT recipe: generate a PGD
/// perturbation in `Eval` mode, then take one SGD step on the perturbed
/// batch in `Train` mode.
///
/// # Panics
///
/// Panics if `indices` is empty.
pub fn local_train(
    model: &mut CascadeModel,
    ds: &Dataset,
    indices: &[usize],
    cfg: &LocalTrainConfig,
) -> f32 {
    assert!(!indices.is_empty(), "client has no data");
    let mut it = BatchIter::new(ds, indices, cfg.batch_size, cfg.seed);
    let mut opt = Sgd::new(cfg.momentum, cfg.weight_decay);
    let ce = CrossEntropyLoss::new();
    let pgd = cfg.pgd.map(Pgd::new);
    let mut rng = seeded_rng(cfg.seed ^ 0xADC0FFEE);
    let mut total_loss = 0.0f64;
    for _ in 0..cfg.iters {
        let (x, y) = it.next_batch();
        let x_train = match &pgd {
            Some(p) => {
                let mut target = ModelTarget::new(model);
                p.attack(&mut target, &x, &y, &mut rng)
            }
            None => x,
        };
        let logits = model.forward(&x_train, Mode::Train);
        let (loss, dlogits) = ce.forward(&logits, &y);
        model.zero_grad();
        model.backward_params(&dlogits);
        opt.step(&mut model.params_mut(), cfg.lr);
        total_loss += loss as f64;
    }
    (total_loss / cfg.iters as f64) as f32
}

/// Trains `model` in place as client `k` of round `t` — the baselines'
/// one client recipe: the run's SGD hyperparameters at learning rate
/// `lr`, a `(seed, round, client)` batch stream, and, when `adversarial`,
/// PGD at the training budget with the run's step count. Returns the
/// mean training loss.
pub(crate) fn train_client(
    env: &FlEnv,
    model: &mut CascadeModel,
    t: usize,
    k: usize,
    lr: f32,
    adversarial: bool,
) -> f32 {
    let cfg = &env.cfg;
    let ltc = LocalTrainConfig {
        iters: cfg.local_iters,
        batch_size: cfg.batch_size,
        lr,
        momentum: cfg.momentum,
        weight_decay: cfg.weight_decay,
        pgd: adversarial.then(|| PgdConfig {
            steps: cfg.pgd_steps,
            ..PgdConfig::train_linf(cfg.eps0)
        }),
        seed: cfg.seed ^ (t as u64) << 24 ^ k as u64,
    };
    local_train(model, &env.data.train, env.client_indices(k), &ltc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_data::{generate, SynthConfig};
    use fp_nn::models;

    fn setup() -> (CascadeModel, Dataset) {
        let mut rng = fp_tensor::seeded_rng(0);
        let model = models::tiny_vgg(3, 8, 4, &[8, 16], &mut rng);
        let ds = generate(&SynthConfig::tiny(4, 8), 11).train;
        (model, ds)
    }

    fn cfg(pgd: Option<PgdConfig>) -> LocalTrainConfig {
        LocalTrainConfig {
            iters: 20,
            batch_size: 16,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            pgd,
            seed: 3,
        }
    }

    #[test]
    fn standard_training_reduces_loss() {
        let (mut model, ds) = setup();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let first = local_train(&mut model, &ds, &idx, &cfg(None));
        let later = local_train(&mut model, &ds, &idx, &cfg(None));
        assert!(later < first, "loss should fall: {first} -> {later}");
    }

    #[test]
    fn adversarial_training_reduces_adv_loss() {
        let (mut model, ds) = setup();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let pgd = Some(PgdConfig::fast(8.0 / 255.0));
        let first = local_train(&mut model, &ds, &idx, &cfg(pgd));
        let mut c = cfg(pgd);
        c.seed = 4;
        let later = local_train(&mut model, &ds, &idx, &c);
        assert!(later < first, "adv loss should fall: {first} -> {later}");
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let (model, ds) = setup();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let mut m1 = model.clone();
        let mut m2 = model.clone();
        local_train(&mut m1, &ds, &idx, &cfg(None));
        local_train(&mut m2, &ds, &idx, &cfg(None));
        assert_eq!(m1.flat_params(), m2.flat_params());
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn rejects_empty_client() {
        let (mut model, ds) = setup();
        local_train(&mut model, &ds, &[], &cfg(None));
    }
}
