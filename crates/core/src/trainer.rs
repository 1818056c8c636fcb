//! Client-side adversarial cascade training (paper §5.1, Eq. 9/13).
//!
//! A window `[from_atom, to_atom)` trains on `z_{m−1}`, the output of the
//! frozen prefix — atoms `[0, from_atom)` run in `Eval` mode, on the
//! attack-pass route (`CascadeModel::forward_dx_only_range`: no backward
//! ever follows a prefix forward, so it caches nothing it would). Both entry
//! points read their batches through `WindowInputs`, which forwards each
//! sample the client's batches use through the prefix once per call and
//! gathers every batch's rows from those features, instead of re-running
//! the prefix on every batch. That is exact: only the window's parameters
//! are stepped while the call runs, an `Eval` forward reads the prefix's
//! running statistics rather than updating them, and every layer of an
//! `Eval` forward computes each sample independently of the rest of its
//! batch, so a sample's `z_{m−1}` is the same bits in any batch.

use crate::aux_head::AuxHead;
use crate::module_target::ModuleTarget;
use fp_attack::{NormBall, Pgd, PgdConfig};
use fp_data::{BatchIter, Dataset};
use fp_nn::{CascadeModel, Sgd};
use fp_tensor::{seeded_rng, Tensor};
use std::collections::HashMap;

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

/// The window inputs of a client's local batches: the `n_batches` batches
/// a [`BatchIter`] draws over the client's samples, in its order, each as
/// the frozen prefix's output — or as the images, when the window starts
/// at the input (module doc).
struct WindowInputs {
    /// Dataset indices of each batch, in draw order.
    batches: Vec<Vec<usize>>,
    from_atom: usize,
    /// Every used sample's prefix output; `None` forwards per batch.
    prefix: Option<Prefix>,
}

/// Prefix outputs, one row of `shape` per sample.
struct Prefix {
    row_of: HashMap<usize, usize>,
    rows: Vec<f32>,
    shape: Vec<usize>,
}

impl WindowInputs {
    /// Draws the batches and, when `reuse` and `from_atom > 0`, forwards
    /// the samples they use through atoms `[0, from_atom)` once, in
    /// first-use order, one batch-size chunk at a time. Without `reuse`,
    /// [`batch`](Self::batch) runs the prefix per batch — the route this
    /// replaces, kept as the tests' reference.
    #[allow(clippy::too_many_arguments)]
    fn new(
        model: &mut CascadeModel,
        ds: &Dataset,
        indices: &[usize],
        batch_size: usize,
        seed: u64,
        n_batches: usize,
        from_atom: usize,
        reuse: bool,
    ) -> Self {
        let mut it = BatchIter::new(ds, indices, batch_size, seed);
        let batches: Vec<Vec<usize>> = (0..n_batches).map(|_| it.next_indices().to_vec()).collect();
        let prefix = (reuse && from_atom > 0).then(|| {
            let (mut row_of, mut used) = (HashMap::new(), Vec::new());
            for &i in batches.iter().flatten() {
                row_of.entry(i).or_insert_with(|| {
                    used.push(i);
                    used.len() - 1
                });
            }
            let (mut rows, mut shape) = (Vec::new(), Vec::new());
            for chunk in used.chunks(it.batch_size()) {
                let z = model.forward_dx_only_range(&ds.batch(chunk).0, 0, from_atom);
                shape = z.shape()[1..].to_vec();
                rows.extend_from_slice(z.data());
            }
            Prefix {
                row_of,
                rows,
                shape,
            }
        });
        WindowInputs {
            batches,
            from_atom,
            prefix,
        }
    }

    /// Batch `b`'s window input `z_{m−1}` and labels.
    fn batch(&self, model: &mut CascadeModel, ds: &Dataset, b: usize) -> (Tensor, Vec<usize>) {
        let idx = &self.batches[b];
        let Some(p) = &self.prefix else {
            let (x, y) = ds.batch(idx);
            if self.from_atom == 0 {
                return (x, y);
            }
            return (model.forward_dx_only_range(&x, 0, self.from_atom), y);
        };
        let per: usize = p.shape.iter().product();
        let mut data = Vec::with_capacity(idx.len() * per);
        for i in idx {
            data.extend_from_slice(&p.rows[p.row_of[i] * per..][..per]);
        }
        let shape: Vec<usize> = std::iter::once(idx.len())
            .chain(p.shape.iter().copied())
            .collect();
        let labels = idx.iter().map(|&i| ds.label(i)).collect();
        (Tensor::from_vec(data, &shape), labels)
    }
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
/// Each iteration: take the batch's `z_{m−1}` (the frozen prefix's
/// output, computed once per sample for the whole call — module doc), run
/// PGD on the feature within the ε-ball, then take one SGD step on the
/// window and head parameters against the strong-convexity regularized
/// early-exit loss.
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
    train_window(model, aux, ds, indices, cfg, true)
}

/// [`train_module_window`] with the prefix reused (`reuse`) or run per
/// batch.
fn train_window(
    model: &mut CascadeModel,
    aux: Option<&mut AuxHead>,
    ds: &Dataset,
    indices: &[usize],
    cfg: &WindowTrainConfig,
    reuse: bool,
) -> f32 {
    assert!(!indices.is_empty(), "client has no data");
    assert!(
        cfg.from_atom < cfg.to_atom && cfg.to_atom <= model.num_atoms(),
        "bad window"
    );
    assert!(
        aux.is_some() || cfg.to_atom == model.num_atoms(),
        "final window must reach the model end"
    );
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
    let inputs = WindowInputs::new(
        model,
        ds,
        indices,
        cfg.batch_size,
        cfg.seed,
        cfg.iters,
        cfg.from_atom,
        reuse,
    );
    let mut total = 0.0f64;
    for b in 0..cfg.iters {
        let (z_in, y) = inputs.batch(model, ds, b);
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
    // The final window exits through the backbone classifier: plain CE
    // (`l_M = l`, paper Proposition 1), no µ-regularizer.
    let mut target = match aux {
        Some(aux) => ModuleTarget::new(model, aux, cfg.from_atom, cfg.to_atom, cfg.mu),
        None => ModuleTarget::final_window(model, cfg.from_atom),
    };
    // Inner maximization on the window input feature.
    let adv_z = match attack {
        Some(p) => p.attack(&mut target, z_in, y, rng),
        None => z_in.clone(),
    };
    target.zero_grad();
    let loss = target.train_step(&adv_z, y);
    opt.step(&mut target.params_mut(), cfg.lr);
    loss
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
    let inputs = WindowInputs::new(
        model, ds, indices, batch_size, seed, n_batches, from_atom, true,
    );
    feature_perturbation(
        model, aux, &inputs, ds, from_atom, to_atom, epsilon_in, mu, pgd_steps, seed,
    )
}

/// [`max_feature_perturbation`] over the batches of `inputs`.
#[allow(clippy::too_many_arguments)]
fn feature_perturbation(
    model: &mut CascadeModel,
    aux: &mut AuxHead,
    inputs: &WindowInputs,
    ds: &Dataset,
    from_atom: usize,
    to_atom: usize,
    epsilon_in: f32,
    mu: f32,
    pgd_steps: usize,
    seed: u64,
) -> f32 {
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
    for b in 0..inputs.batches.len() {
        let (z_in, y) = inputs.batch(model, ds, b);
        let adv = {
            let mut target = ModuleTarget::new(model, aux, from_atom, to_atom, mu);
            pgd.attack(&mut target, &z_in, &y, &mut rng)
        };
        let z_clean = model.forward_dx_only_range(&z_in, from_atom, to_atom);
        let z_adv = model.forward_dx_only_range(&adv, from_atom, to_atom);
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
    use fp_nn::{models, Mode};

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

    /// [`setup`] after one `Train` forward, so the prefix's BN running
    /// statistics are not their initial values.
    fn warmed_setup() -> (CascadeModel, Vec<AuxHead>, Dataset) {
        let (mut model, heads, ds) = setup();
        let idx: Vec<usize> = (0..32).collect();
        model.forward(&ds.batch(&idx).0, Mode::Train);
        (model, heads, ds)
    }

    /// Every bit a window call can change: each parameter and BN
    /// statistic of the model, then the head's parameters.
    fn state(model: &CascadeModel, aux: Option<&AuxHead>) -> Vec<u32> {
        let mut v = model.flat_params();
        for (mean, var) in model.bn_stats() {
            v.extend(mean.data().iter().chain(var.data()));
        }
        v.extend(aux.map(AuxHead::flat_params).unwrap_or_default());
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The prefix's parameters and BN statistics as bits.
    fn prefix_state(model: &CascadeModel, to: usize) -> Vec<u32> {
        let mut v = model.flat_params_range(0, to);
        for (mean, var) in model.bn_stats_range(0, to) {
            v.extend(mean.data().iter().chain(var.data()));
        }
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Windows from atoms 1 and 2 (with a head, and the final window
    /// without one) over clients smaller than one batch, exactly one, and
    /// larger (two batches an epoch, so the third draw reshuffles).
    fn window_cases() -> Vec<(usize, usize, Vec<usize>)> {
        let (model, _, ds) = setup();
        let n = model.num_atoms();
        assert!(n >= 4 && ds.len() >= 80, "{n} atoms, {} samples", ds.len());
        let mut cases = Vec::new();
        for (from, to) in [(1, 2), (2, 3), (1, n), (2, n)] {
            for size in [7, 16, 40] {
                let idx = (0..size).map(|i| (i * 7 + from) % 80).collect();
                cases.push((from, to, idx));
            }
        }
        cases
    }

    /// `train_module_window` with the prefix computed once per call leaves
    /// the model and head bitwise where the per-batch prefix route does,
    /// returns the same loss, and never touches the prefix.
    #[test]
    fn window_inputs_train_like_the_per_batch_prefix() {
        for (from, to, idx) in window_cases() {
            let c = WindowTrainConfig {
                iters: 7,
                ..cfg(from, to, 0.5)
            };
            let run = |reuse: bool| {
                let (mut model, mut heads, ds) = warmed_setup();
                let before = prefix_state(&model, from);
                let mut aux = (to < model.num_atoms()).then(|| heads.swap_remove(to - 1));
                let loss = train_window(&mut model, aux.as_mut(), &ds, &idx, &c, reuse);
                assert_eq!(prefix_state(&model, from), before, "prefix moved");
                (loss.to_bits(), state(&model, aux.as_ref()))
            };
            let what = format!("window {from}..{to}, {} samples", idx.len());
            assert!(run(true) == run(false), "{what}");
        }
    }

    /// `max_feature_perturbation` with the prefix computed once per call
    /// returns the per-batch route's bits and leaves the same state.
    #[test]
    fn window_inputs_probe_like_the_per_batch_prefix() {
        for (from, to, idx) in window_cases() {
            if to == setup().0.num_atoms() {
                continue;
            }
            let run = |reuse: bool| {
                let (mut model, mut heads, ds) = warmed_setup();
                let before = prefix_state(&model, from);
                let aux = &mut heads[to - 1];
                let inputs = WindowInputs::new(&mut model, &ds, &idx, 16, 3, 4, from, reuse);
                let worst =
                    feature_perturbation(&mut model, aux, &inputs, &ds, from, to, 0.5, 1e-3, 2, 3);
                assert_eq!(prefix_state(&model, from), before, "prefix moved");
                (worst.to_bits(), state(&model, Some(aux)))
            };
            let what = format!("window {from}..{to}, {} samples", idx.len());
            assert!(run(true) == run(false), "{what}");
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
