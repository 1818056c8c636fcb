//! Client-side adversarial cascade training (paper §5.1, Eq. 9/13).

use crate::aux_head::AuxHead;
use crate::module_target::ModuleTarget;
use fp_attack::{AttackTarget, NormBall, Pgd, PgdConfig};
use fp_data::{BatchIter, Dataset};
use fp_nn::{CascadeModel, Mode, Param, Sgd};
use fp_tensor::{seeded_rng, Tensor};

/// Configuration for training one assigned module window on one client
/// for one round.
#[derive(Debug, Clone, Copy)]
pub struct WindowTrainConfig {
    /// First atom of the window (start of module `m`).
    pub from_atom: usize,
    /// One past the last atom of the window (end of module `M_k`).
    pub to_atom: usize,
    /// Perturbation budget on the window input: ℓ∞ `ε₀` when the window
    /// starts at the image input, else the APA-produced ℓ2 `ε_{m−1}`.
    pub epsilon: f32,
    /// Strong convexity coefficient µ (Eq. 9).
    pub mu: f32,
    /// PGD steps of the inner maximization.
    pub pgd_steps: usize,
    /// Local SGD iterations `E`.
    pub iters: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Weight decay.
    pub weight_decay: f32,
    /// Seed (per client and round).
    pub seed: u64,
    /// Kernel threads for this client's GEMM/im2col traffic: `0` keeps the
    /// process-default backend, `n` pins a `Parallel` backend capped at
    /// `n` threads. Federated loops running clients on parallel worker
    /// threads set this from `fp_tensor::parallel::thread_split` so the
    /// two parallelism levels never oversubscribe the machine.
    pub backend_threads: usize,
}

/// The perturbation ball (and feature clamp) on a window's input: ℓ∞ on
/// `[0, 1]` images when the window starts at the input, ℓ2 on features
/// otherwise.
fn window_ball(from_atom: usize, eps: f32) -> (NormBall, Option<(f32, f32)>) {
    if from_atom == 0 {
        (NormBall::Linf(eps), Some((0.0, 1.0)))
    } else {
        (NormBall::L2(eps), None)
    }
}

/// Adversarially trains atoms `[from_atom, to_atom)` of `model` (with head
/// `aux`; `None` when the window ends in the backbone classifier) on the
/// client's local data; earlier atoms stay fixed and provide the input
/// features. Returns the mean regularized training loss.
///
/// Each iteration: freeze-forward to `z_{m−1}`, run PGD on the feature
/// within the ε-ball, then take one SGD step on the window and head
/// parameters against the strong-convexity regularized early-exit loss.
///
/// # Panics
///
/// Panics if the window is invalid or the client has no data.
pub fn train_module_window(
    model: &mut CascadeModel,
    aux: Option<&mut AuxHead>,
    ds: &Dataset,
    indices: &[usize],
    cfg: &WindowTrainConfig,
) -> f32 {
    assert!(!indices.is_empty(), "client has no data");
    assert!(
        cfg.from_atom < cfg.to_atom && cfg.to_atom <= model.num_atoms(),
        "bad window"
    );
    let mut it = BatchIter::new(ds, indices, cfg.batch_size, cfg.seed);
    let mut opt = Sgd::new(cfg.momentum, cfg.weight_decay);
    let mut rng = seeded_rng(cfg.seed ^ 0xCA5CADE);
    let (ball, clamp) = window_ball(cfg.from_atom, cfg.epsilon);
    let attack = (cfg.pgd_steps > 0 && cfg.epsilon > 0.0).then(|| {
        Pgd::new(PgdConfig {
            steps: cfg.pgd_steps,
            alpha: None,
            ball,
            random_start: true,
            restarts: 1,
            clamp,
        })
    });
    let mut aux = aux;
    if cfg.backend_threads > 0 {
        let backend = fp_tensor::backend_for_threads(cfg.backend_threads);
        model.set_backend(&backend);
        if let Some(a) = aux.as_deref_mut() {
            a.set_backend(&backend);
        }
    }
    let mut total = 0.0f64;
    for _ in 0..cfg.iters {
        let (x, y) = it.next_batch();
        let z_in = if cfg.from_atom == 0 {
            x
        } else {
            model.forward_range(&x, 0, cfg.from_atom, Mode::Eval)
        };
        let loss = step_window(
            model,
            aux.as_deref_mut(),
            &z_in,
            &y,
            cfg,
            attack.as_ref(),
            &mut opt,
            &mut rng,
        );
        total += loss as f64;
    }
    (total / cfg.iters as f64) as f32
}

#[allow(clippy::too_many_arguments)]
fn step_window(
    model: &mut CascadeModel,
    aux: Option<&mut AuxHead>,
    z_in: &Tensor,
    y: &[usize],
    cfg: &WindowTrainConfig,
    attack: Option<&Pgd>,
    opt: &mut Sgd,
    rng: &mut rand::rngs::StdRng,
) -> f32 {
    // Inner maximization on the window input feature.
    let mut perturb = |target: &mut dyn AttackTarget| match attack {
        Some(p) => p.attack(target, z_in, y, rng),
        None => z_in.clone(),
    };
    match aux {
        Some(aux) => {
            let mut target = ModuleTarget::new(model, aux, cfg.from_atom, cfg.to_atom, cfg.mu);
            let adv_z = perturb(&mut target);
            target.zero_grad();
            let (loss, _) = target.loss_and_grads(&adv_z, y, Mode::Train);
            let mut params: Vec<&mut Param> = model.params_range_mut(cfg.from_atom, cfg.to_atom);
            params.extend(aux.params_mut());
            opt.step(&mut params, cfg.lr);
            loss
        }
        None => {
            // Final window: the backbone classifier is the exit; plain CE
            // (`l_M = l`, paper Proposition 1), no µ-regularizer.
            let mut target =
                crate::module_target::FinalWindowTarget::new(model, cfg.from_atom, cfg.to_atom);
            let adv_z = perturb(&mut target);
            target.zero_grad();
            let loss = target.train_step(&adv_z, y);
            let mut params: Vec<&mut Param> = model.params_range_mut(cfg.from_atom, cfg.to_atom);
            opt.step(&mut params, cfg.lr);
            loss
        }
    }
}

/// Probes the largest output-feature perturbation of a *fixed* module
/// window (paper §6.2: after fixing module `m`, clients report
/// `max‖Δz_m‖₂` under the input perturbation `ε_{m−1}`; the server
/// averages these to seed the next module's APA reference).
///
/// Returns the maximum per-sample ℓ2 perturbation of the window output
/// over `n_batches` local batches.
#[allow(clippy::too_many_arguments)]
pub fn max_feature_perturbation(
    model: &mut CascadeModel,
    aux: &mut AuxHead,
    from_atom: usize,
    to_atom: usize,
    ds: &Dataset,
    indices: &[usize],
    epsilon_in: f32,
    mu: f32,
    pgd_steps: usize,
    batch_size: usize,
    n_batches: usize,
    seed: u64,
) -> f32 {
    let mut it = BatchIter::new(ds, indices, batch_size, seed);
    let mut rng = seeded_rng(seed ^ 0xDE17A);
    let (ball, clamp) = window_ball(from_atom, epsilon_in);
    let pgd = Pgd::new(PgdConfig {
        steps: pgd_steps.max(1),
        alpha: None,
        ball,
        random_start: true,
        restarts: 1,
        clamp,
    });
    let mut worst = 0.0f32;
    for _ in 0..n_batches {
        let (x, y) = it.next_batch();
        let z_in = if from_atom == 0 {
            x
        } else {
            model.forward_range(&x, 0, from_atom, Mode::Eval)
        };
        let adv = {
            let mut target = ModuleTarget::new(model, aux, from_atom, to_atom, mu);
            pgd.attack(&mut target, &z_in, &y, &mut rng)
        };
        let z_clean = model.forward_range(&z_in, from_atom, to_atom, Mode::Eval);
        let z_adv = model.forward_range(&adv, from_atom, to_atom, Mode::Eval);
        let diff = z_adv.sub(&z_clean);
        let batch = diff.shape()[0];
        let per: usize = diff.shape()[1..].iter().product();
        for s in 0..batch {
            let n = diff.data()[s * per..(s + 1) * per]
                .iter()
                .map(|&v| v as f64 * v as f64)
                .sum::<f64>()
                .sqrt() as f32;
            worst = worst.max(n);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_data::{generate, SynthConfig};
    use fp_nn::models;

    fn setup() -> (CascadeModel, Vec<AuxHead>, Dataset) {
        let mut rng = fp_tensor::seeded_rng(0);
        let model = models::tiny_vgg(3, 8, 4, &[6, 8, 12], &mut rng);
        let heads = (1..model.num_atoms())
            .map(|k| AuxHead::new("aux", &model.feature_shape(k), 4, &mut rng))
            .collect();
        let ds = generate(&SynthConfig::tiny(4, 8), 17).train;
        (model, heads, ds)
    }

    fn cfg(from: usize, to: usize, eps: f32) -> WindowTrainConfig {
        WindowTrainConfig {
            from_atom: from,
            to_atom: to,
            epsilon: eps,
            mu: 1e-3,
            pgd_steps: 2,
            iters: 12,
            batch_size: 16,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            seed: 5,
            backend_threads: 0,
        }
    }

    #[test]
    fn first_module_training_reduces_loss() {
        let (mut model, mut heads, ds) = setup();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let c = cfg(0, 1, 8.0 / 255.0);
        let first = train_module_window(&mut model, Some(&mut heads[0]), &ds, &idx, &c);
        let later = train_module_window(
            &mut model,
            Some(&mut heads[0]),
            &ds,
            &idx,
            &WindowTrainConfig { seed: 6, ..c },
        );
        assert!(later < first, "module-1 loss {first} -> {later}");
    }

    #[test]
    fn intermediate_module_trains_without_touching_prefix() {
        let (mut model, mut heads, ds) = setup();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let before_prefix = model.flat_params_range(0, 1);
        let c = cfg(1, 2, 0.5);
        train_module_window(&mut model, Some(&mut heads[1]), &ds, &idx, &c);
        assert_eq!(
            model.flat_params_range(0, 1),
            before_prefix,
            "fixed modules must not change"
        );
        // The trained window must change.
        let after = model.flat_params_range(1, 2);
        let mut rng = fp_tensor::seeded_rng(0);
        let fresh = models::tiny_vgg(3, 8, 4, &[6, 8, 12], &mut rng);
        assert_ne!(after, fresh.flat_params_range(1, 2));
    }

    #[test]
    fn final_window_trains_with_backbone_classifier() {
        let (mut model, _, ds) = setup();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let n = model.num_atoms();
        let c = cfg(n - 1, n, 0.5);
        let first = train_module_window(&mut model, None, &ds, &idx, &c);
        let later = train_module_window(
            &mut model,
            None,
            &ds,
            &idx,
            &WindowTrainConfig { seed: 9, ..c },
        );
        assert!(later < first, "final-module loss {first} -> {later}");
    }

    #[test]
    fn max_feature_perturbation_is_positive_and_bounded() {
        let (mut model, mut heads, ds) = setup();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let worst = max_feature_perturbation(
            &mut model,
            &mut heads[0],
            0,
            1,
            &ds,
            &idx,
            8.0 / 255.0,
            1e-3,
            2,
            16,
            2,
            3,
        );
        assert!(worst > 0.0, "attack must move the feature");
        assert!(worst.is_finite());
    }

    #[test]
    fn zero_steps_disables_attack() {
        let (mut model, mut heads, ds) = setup();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let mut c = cfg(0, 1, 8.0 / 255.0);
        c.pgd_steps = 0;
        // Standard cascade training still works.
        let loss = train_module_window(&mut model, Some(&mut heads[0]), &ds, &idx, &c);
        assert!(loss.is_finite());
    }
}
