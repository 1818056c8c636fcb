//! Attacking a module window at its input feature.

use crate::aux_head::AuxHead;
use fp_attack::{AttackTarget, SplitModel};
use fp_nn::{CascadeModel, CrossEntropyLoss, Mode, Param};
use fp_tensor::{BackendHandle, Tensor};

/// An [`AttackTarget`] over a module window `w_m ∘ ⋯ ∘ w_M` plus its exit,
/// differentiated at the window's **input feature** `z_{m−1}` — the
/// adversarial-cascade-learning inner maximization of Eq. 9/13.
///
/// With an auxiliary head ([`ModuleTarget::new`]) the loss is the
/// strong-convexity regularized early-exit loss
/// `l_CE(aux(z_M), y) + µ/2·‖z_M‖²`. The final window
/// ([`ModuleTarget::final_window`]) exits through the backbone classifier
/// itself (`l_M = l`, paper Proposition 1): plain cross-entropy, no head
/// and no µ-term.
pub struct ModuleTarget<'a> {
    model: &'a mut CascadeModel,
    from: usize,
    to: usize,
    exit: Exit<'a>,
    /// The denominator of the batch mean; `None` is the batch itself.
    over: Option<usize>,
}

/// Where a [`ModuleTarget`]'s window exits.
enum Exit<'a> {
    /// An auxiliary head and the strong convexity coefficient µ.
    Head(&'a mut AuxHead, f32),
    /// The backbone classifier: the window's output is the logits.
    Classifier,
}

impl<'a> ModuleTarget<'a> {
    /// Wraps atoms `[from, to)` of `model` with head `aux` and strong
    /// convexity coefficient `mu`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid window.
    pub fn new(
        model: &'a mut CascadeModel,
        aux: &'a mut AuxHead,
        from: usize,
        to: usize,
        mu: f32,
    ) -> Self {
        assert!(mu >= 0.0, "mu must be non-negative");
        Self::with_exit(model, from, to, Exit::Head(aux, mu))
    }

    /// Wraps the final window, atoms `[from, num_atoms)` of `model`, whose
    /// exit is the backbone classifier.
    ///
    /// # Panics
    ///
    /// Panics unless `from < model.num_atoms()`.
    pub fn final_window(model: &'a mut CascadeModel, from: usize) -> Self {
        let to = model.num_atoms();
        Self::with_exit(model, from, to, Exit::Classifier)
    }

    fn with_exit(model: &'a mut CascadeModel, from: usize, to: usize, exit: Exit<'a>) -> Self {
        assert!(
            from < to && to <= model.num_atoms(),
            "bad window {from}..{to}"
        );
        ModuleTarget {
            model,
            from,
            to,
            exit,
            over: None,
        }
    }

    /// The target of a row chunk of an `n`-row batch: the cross-entropy,
    /// the µ-term and their gradients are divided by `n`, not by the
    /// chunk's rows, so every gradient row is that row of the whole
    /// batch's.
    pub fn mean_over(self, n: usize) -> Self {
        ModuleTarget {
            over: Some(n),
            ..self
        }
    }

    /// The window's loss (type doc) and its gradients, in `mode`.
    ///
    /// Returns `(loss, grad_z_in)`; parameter gradients of the window and
    /// any head are **accumulated** for the training step to consume. The
    /// attack path, [`AttackTarget::loss_and_input_grad`], computes the
    /// same two values without touching them.
    pub fn loss_and_grads(&mut self, z_in: &Tensor, labels: &[usize], mode: Mode) -> (f32, Tensor) {
        let (loss, dz_in) = self.pass(z_in, labels, mode, Backward::Full);
        (
            loss,
            dz_in.expect("a full backward returns the input gradient"),
        )
    }

    /// One `Train`-mode training pass: accumulates the window's and the
    /// head's parameter gradients exactly as [`ModuleTarget::loss_and_grads`]
    /// does, without the input gradient nobody reads, and returns the loss.
    pub fn train_step(&mut self, z_in: &Tensor, labels: &[usize]) -> f32 {
        self.pass(z_in, labels, Mode::Train, Backward::Params).0
    }

    /// One forward + the `route` backward: the loss, and `∇z_in` unless
    /// the route is [`Backward::Params`].
    fn pass(
        &mut self,
        z_in: &Tensor,
        labels: &[usize],
        mode: Mode,
        route: Backward,
    ) -> (f32, Option<Tensor>) {
        let (model, from, to) = (&mut *self.model, self.from, self.to);
        let z_out = match route {
            Backward::Input => model.forward_dx_only_range(z_in, from, to),
            Backward::Full | Backward::Params => model.forward_range(z_in, from, to, mode),
        };
        let ce = self
            .over
            .map_or_else(CrossEntropyLoss::new, CrossEntropyLoss::mean_over);
        let (loss, dz_out) = match &mut self.exit {
            Exit::Classifier => ce.forward(&z_out, labels),
            Exit::Head(aux, mu) => {
                let logits = match route {
                    Backward::Input => aux.forward_dx_only(&z_out),
                    Backward::Full | Backward::Params => aux.forward(&z_out, mode),
                };
                let (ce_loss, dlogits) = ce.forward(&logits, labels);
                let batch = self.over.unwrap_or(labels.len()) as f32;
                // µ/2·‖z_out‖² (mean over batch).
                let reg = 0.5 * *mu * z_out.data().iter().map(|&v| v * v).sum::<f32>() / batch;
                let mut dz_out = match route {
                    Backward::Input => aux.backward_input(&dlogits),
                    Backward::Full | Backward::Params => aux.backward(&dlogits),
                };
                dz_out.axpy(*mu / batch, &z_out);
                (ce_loss + reg, dz_out)
            }
        };
        let dz_in = match route {
            Backward::Input => Some(model.backward_input_range(&dz_out, from, to)),
            Backward::Full => Some(model.backward_range(&dz_out, from, to)),
            Backward::Params => {
                model.backward_params_range(&dz_out, from, to);
                None
            }
        };
        (loss, dz_in)
    }

    /// The window's parameters, then the head's.
    pub(crate) fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.model.params_range_mut(self.from, self.to);
        if let Exit::Head(aux, _) = &mut self.exit {
            params.extend(aux.params_mut());
        }
        params
    }

    /// Zeroes the window's and head's parameter gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }
}

/// The backward a [`ModuleTarget`] pass runs.
#[derive(Clone, Copy)]
enum Backward {
    /// `∇z_in` only (an attack pass), after the `Eval` forward that
    /// caches only what it reads.
    Input,
    /// Parameter gradients and `∇z_in`.
    Full,
    /// Parameter gradients only (a training step).
    Params,
}

impl AttackTarget for ModuleTarget<'_> {
    fn loss_and_input_grad(&mut self, z_in: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        let (loss, dz_in) = self.pass(z_in, labels, Mode::Eval, Backward::Input);
        (
            loss,
            dz_in.expect("an input backward returns the input gradient"),
        )
    }

    fn logits(&mut self, z_in: &Tensor) -> Tensor {
        let z_out = self.model.forward_dx_only_range(z_in, self.from, self.to);
        match &mut self.exit {
            Exit::Classifier => z_out,
            Exit::Head(aux, _) => aux.forward_dx_only(&z_out),
        }
    }
}

/// A window and its exit, owned, as `fp_attack::split_accuracy` attacks
/// it: atoms `[from, to)` exiting through `head` with µ, or through the
/// classifier at the model's end when there is no head.
#[derive(Clone)]
pub(crate) struct OwnedWindow {
    pub(crate) model: CascadeModel,
    pub(crate) head: Option<AuxHead>,
    pub(crate) from: usize,
    pub(crate) to: usize,
    pub(crate) mu: f32,
}

impl SplitModel for OwnedWindow {
    fn set_backend(&mut self, backend: &BackendHandle) {
        self.model.set_backend(backend);
        if let Some(head) = &mut self.head {
            head.set_backend(backend);
        }
    }

    fn chunk_target(&mut self, n: usize) -> Box<dyn AttackTarget + '_> {
        let target = match &mut self.head {
            None => ModuleTarget::final_window(&mut self.model, self.from),
            Some(head) => ModuleTarget::new(&mut self.model, head, self.from, self.to, self.mu),
        };
        Box::new(target.mean_over(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_attack::{split_accuracy, NormBall, Pgd, PgdConfig};
    use fp_nn::models;

    fn setup() -> (CascadeModel, AuxHead) {
        let mut rng = fp_tensor::seeded_rng(0);
        let model = models::tiny_vgg(3, 8, 4, &[6, 8, 12], &mut rng);
        let feature = model.feature_shape(2); // output of atom 1 window end
        let aux = AuxHead::new("aux", &feature, 4, &mut rng);
        (model, aux)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// `split_accuracy` over `ModuleTarget` windows — head exits with
    /// µ > 0 (at the image input and at a feature) and the classifier
    /// exit — under an ℓ2 ball, whose per-sample normalisation exposes a
    /// wrong denominator in the cross-entropy or the µ-term: for n ∈ {0, 1,
    /// 2, 31, 63, 64} and 1–4 workers, the adversarial rows and both
    /// accuracies equal the one-chunk run, which equals the unsplit
    /// attack, bit for bit.
    #[test]
    fn split_validation_module_target_matches_one_chunk() {
        let (mut model, aux) = setup();
        let mut rng = fp_tensor::seeded_rng(4);
        let x = Tensor::rand_uniform(&[64, 3, 8, 8], 0.0, 1.0, &mut rng);
        let z = model.forward_range(&x, 0, 1, Mode::Eval);
        let labels: Vec<usize> = (0..64).map(|i| (i * 5 + i / 3) % 4).collect();
        let head0 = AuxHead::new("aux0", &model.feature_shape(1), 4, &mut rng);
        let windows = [
            (Some(head0), 0, 1, &x, Some((0.0, 1.0))),
            (Some(aux), 1, 2, &z, None),
            (None, 1, 3, &z, None),
        ];
        for (head, from, to, input, clamp) in windows {
            let pgd = Pgd::new(PgdConfig {
                steps: 3,
                alpha: None,
                ball: NormBall::L2(0.6),
                random_start: true,
                restarts: 1,
                clamp,
            });
            let window = OwnedWindow {
                model: model.clone(),
                head,
                from,
                to,
                mu: 0.7,
            };
            for n in [0, 1, 2, 31, 63, 64] {
                let per: usize = input.shape()[1..].iter().product();
                let mut shape = input.shape().to_vec();
                shape[0] = n;
                let rows = Tensor::from_vec(input.data()[..n * per].to_vec(), &shape);
                let labels = &labels[..n];
                let run = |workers| {
                    let mut rng = fp_tensor::seeded_rng(n as u64);
                    let mut copy = window.clone();
                    split_accuracy(&mut copy, &rows, labels, &pgd, &mut rng, (workers, 1))
                };
                let one = run(1);
                let what = format!("window {from}..{to} n {n}");
                if n > 0 {
                    let mut copy = window.clone();
                    let mut target = match &mut copy.head {
                        None => ModuleTarget::final_window(&mut copy.model, from),
                        Some(h) => ModuleTarget::new(&mut copy.model, h, from, to, copy.mu),
                    };
                    let mut rng = fp_tensor::seeded_rng(n as u64);
                    let adv = pgd.attack(&mut target, &rows, labels, &mut rng);
                    assert_eq!(bits(&one.adv_x), bits(&adv), "{what}: unsplit attack");
                }
                for workers in 2..=4 {
                    let split = run(workers);
                    let tag = format!("{what} workers {workers}");
                    assert_eq!(bits(&split.adv_x), bits(&one.adv_x), "{tag}: rows");
                    assert_eq!(split.clean.to_bits(), one.clean.to_bits(), "{tag}");
                    assert_eq!(split.adv.to_bits(), one.adv.to_bits(), "{tag}");
                }
            }
        }
    }

    #[test]
    fn loss_includes_regularizer() {
        let (mut model, mut aux) = setup();
        let mut rng = fp_tensor::seeded_rng(1);
        let z0 = model.forward_range(
            &Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng),
            0,
            1,
            Mode::Eval,
        );
        let mut t_reg = ModuleTarget::new(&mut model, &mut aux, 1, 2, 1.0);
        let (with_reg, _) = t_reg.loss_and_grads(&z0, &[0, 1], Mode::Eval);
        t_reg.zero_grad();
        let mut t_noreg = ModuleTarget::new(&mut model, &mut aux, 1, 2, 0.0);
        let (without, _) = t_noreg.loss_and_grads(&z0, &[0, 1], Mode::Eval);
        assert!(
            with_reg > without,
            "regularized loss {with_reg} must exceed {without}"
        );
    }

    /// Fills every gradient in `params` with noise (a caller
    /// mid-accumulation) and returns what was written.
    fn seed_grads(params: Vec<&mut fp_nn::Param>, rng: &mut rand::rngs::StdRng) -> Vec<Tensor> {
        params
            .into_iter()
            .map(|p| {
                *p.grad_mut() = Tensor::rand_uniform(p.grad().shape(), -1.0, 1.0, rng);
                p.grad().clone()
            })
            .collect()
    }

    #[test]
    fn module_input_grad_has_input_shape_and_params_stay_clean() {
        let (mut model, mut aux) = setup();
        let mut rng = fp_tensor::seeded_rng(4);
        let z0 = model.forward_range(
            &Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng),
            0,
            1,
            Mode::Eval,
        );
        let mut params = model.params_mut();
        params.extend(aux.params_mut());
        let seeded = seed_grads(params, &mut rng);
        let mut target = ModuleTarget::new(&mut model, &mut aux, 1, 2, 0.1);
        let (loss, dz) = target.loss_and_input_grad(&z0, &[0, 1]);
        assert!(loss.is_finite());
        assert_eq!(dz.shape(), z0.shape());
        let after: Vec<Tensor> = model
            .params()
            .into_iter()
            .chain(aux.params())
            .map(|p| p.grad().clone())
            .collect();
        assert_eq!(after, seeded, "attack pass touched a parameter gradient");
    }

    #[test]
    fn final_window_input_grad_has_input_shape_and_params_stay_clean() {
        let (mut model, _) = setup();
        let mut rng = fp_tensor::seeded_rng(5);
        let n = model.num_atoms();
        let z0 = model.forward_range(
            &Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng),
            0,
            n - 1,
            Mode::Eval,
        );
        let seeded = seed_grads(model.params_mut(), &mut rng);
        let mut target = ModuleTarget::final_window(&mut model, n - 1);
        let (loss, dz) = target.loss_and_input_grad(&z0, &[0, 1]);
        assert!(loss.is_finite());
        assert_eq!(dz.shape(), z0.shape());
        let after: Vec<Tensor> = model.params().iter().map(|p| p.grad().clone()).collect();
        assert_eq!(after, seeded, "attack pass touched a parameter gradient");
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let (mut model, mut aux) = setup();
        let mut rng = fp_tensor::seeded_rng(2);
        let z0 = model.forward_range(
            &Tensor::rand_uniform(&[1, 3, 8, 8], 0.0, 1.0, &mut rng),
            0,
            1,
            Mode::Eval,
        );
        let labels = [2usize];
        let mu = 0.1;
        let mut target = ModuleTarget::new(&mut model, &mut aux, 1, 2, mu);
        let (_, grad) = target.loss_and_input_grad(&z0, &labels);
        let h = 2e-3f32;
        // Probe a few coordinates.
        for i in (0..z0.numel()).step_by(z0.numel() / 7 + 1) {
            let mut zp = z0.clone();
            zp.data_mut()[i] += h;
            let (lp, _) = target.loss_and_input_grad(&zp, &labels);
            let mut zm = z0.clone();
            zm.data_mut()[i] -= h;
            let (lm, _) = target.loss_and_input_grad(&zm, &labels);
            let num = (lp - lm) / (2.0 * h);
            let diff = (grad.data()[i] - num).abs();
            assert!(
                diff < 2e-2 + 0.05 * num.abs().max(grad.data()[i].abs()),
                "coord {i}: analytic {} vs numeric {num}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn pgd_on_intermediate_features_increases_loss() {
        let (mut model, mut aux) = setup();
        let mut rng = fp_tensor::seeded_rng(3);
        let z0 = model.forward_range(
            &Tensor::rand_uniform(&[4, 3, 8, 8], 0.0, 1.0, &mut rng),
            0,
            1,
            Mode::Eval,
        );
        let labels = [0, 1, 2, 3];
        let mut target = ModuleTarget::new(&mut model, &mut aux, 1, 2, 1e-3);
        let (clean_loss, _) = target.loss_and_input_grad(&z0, &labels);
        let eps = 0.5 * z0.norm_l2() / (labels.len() as f32).sqrt();
        let pgd = Pgd::new(PgdConfig {
            steps: 5,
            alpha: None,
            ball: NormBall::L2(eps),
            random_start: true,
            restarts: 1,
            clamp: None,
        });
        let adv = pgd.attack(&mut target, &z0, &labels, &mut rng);
        let (adv_loss, _) = target.loss_and_input_grad(&adv, &labels);
        assert!(
            adv_loss > clean_loss,
            "feature-space PGD failed: {adv_loss} <= {clean_loss}"
        );
    }
}
