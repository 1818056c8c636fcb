//! Attacking a module window at its input feature.

use crate::aux_head::AuxHead;
use fp_attack::AttackTarget;
use fp_nn::{CascadeModel, CrossEntropyLoss, Mode};
use fp_tensor::Tensor;

/// An [`AttackTarget`] over a module window `w_m ∘ ⋯ ∘ w_M` plus its
/// auxiliary head, differentiated at the window's **input feature**
/// `z_{m−1}` — the adversarial-cascade-learning inner maximization of
/// Eq. 9/13.
///
/// The loss is the strong-convexity regularized early-exit loss
/// `l_CE(aux(z_M), y) + µ/2·‖z_M‖²`.
pub struct ModuleTarget<'a> {
    model: &'a mut CascadeModel,
    aux: &'a mut AuxHead,
    from: usize,
    to: usize,
    mu: f32,
    ce: CrossEntropyLoss,
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
        assert!(
            from < to && to <= model.num_atoms(),
            "bad window {from}..{to}"
        );
        assert!(mu >= 0.0, "mu must be non-negative");
        ModuleTarget {
            model,
            aux,
            from,
            to,
            mu,
            ce: CrossEntropyLoss::new(),
        }
    }

    /// Forward in `mode`, returning `(z_out, logits)`.
    pub fn forward_full(&mut self, z_in: &Tensor, mode: Mode) -> (Tensor, Tensor) {
        let z_out = self.model.forward_range(z_in, self.from, self.to, mode);
        let logits = self.aux.forward(&z_out, mode);
        (z_out, logits)
    }

    /// The regularized early-exit loss and its gradients, in `mode`.
    ///
    /// Returns `(loss, grad_z_in)`; parameter gradients of the window and
    /// the head are **accumulated** for the training step to consume. The
    /// attack path, [`AttackTarget::loss_and_input_grad`], computes the
    /// same two values without touching them.
    pub fn loss_and_grads(&mut self, z_in: &Tensor, labels: &[usize], mode: Mode) -> (f32, Tensor) {
        self.pass(z_in, labels, mode, true)
    }

    /// One forward + backward; `accumulate` picks the backward that also
    /// accumulates parameter gradients over the input-gradient-only one.
    fn pass(
        &mut self,
        z_in: &Tensor,
        labels: &[usize],
        mode: Mode,
        accumulate: bool,
    ) -> (f32, Tensor) {
        let (z_out, logits) = self.forward_full(z_in, mode);
        let (ce_loss, dlogits) = self.ce.forward(&logits, labels);
        let batch = labels.len() as f32;
        // µ/2·‖z_out‖² (mean over batch).
        let reg = 0.5 * self.mu * z_out.data().iter().map(|&v| v * v).sum::<f32>() / batch;
        let mut dz_out = if accumulate {
            self.aux.backward(&dlogits)
        } else {
            self.aux.backward_input(&dlogits)
        };
        dz_out.axpy(self.mu / batch, &z_out);
        let dz_in = if accumulate {
            self.model.backward_range(&dz_out, self.from, self.to)
        } else {
            self.model.backward_input_range(&dz_out, self.from, self.to)
        };
        (ce_loss + reg, dz_in)
    }

    /// Zeroes the window's and head's parameter gradients.
    pub fn zero_grad(&mut self) {
        for p in self.model.params_range_mut(self.from, self.to) {
            p.zero_grad();
        }
        self.aux.zero_grad();
    }
}

impl AttackTarget for ModuleTarget<'_> {
    fn loss_and_input_grad(&mut self, z_in: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        self.pass(z_in, labels, Mode::Eval, false)
    }

    fn logits(&mut self, z_in: &Tensor) -> Tensor {
        let z_out = self
            .model
            .forward_range(z_in, self.from, self.to, Mode::Eval);
        self.aux.forward(&z_out, Mode::Eval)
    }
}

/// An [`AttackTarget`] over the **final** module window, whose exit is the
/// backbone classifier itself (`l_M = l`, paper Proposition 1): plain
/// cross-entropy, no auxiliary head, no µ-regularizer.
pub struct FinalWindowTarget<'a> {
    model: &'a mut CascadeModel,
    from: usize,
    to: usize,
    ce: CrossEntropyLoss,
}

impl<'a> FinalWindowTarget<'a> {
    /// Wraps atoms `[from, to)`; `to` must be the model end.
    ///
    /// # Panics
    ///
    /// Panics unless `to == model.num_atoms()`.
    pub fn new(model: &'a mut CascadeModel, from: usize, to: usize) -> Self {
        assert_eq!(
            to,
            model.num_atoms(),
            "final window must reach the model end"
        );
        assert!(from < to, "bad window");
        FinalWindowTarget {
            model,
            from,
            to,
            ce: CrossEntropyLoss::new(),
        }
    }

    /// Zeroes the window's parameter gradients.
    pub fn zero_grad(&mut self) {
        for p in self.model.params_range_mut(self.from, self.to) {
            p.zero_grad();
        }
    }

    /// One training pass in `Train` mode: accumulates window gradients and
    /// returns the loss (the caller applies the optimizer step).
    pub fn train_step(&mut self, z_in: &Tensor, labels: &[usize]) -> f32 {
        let logits = self
            .model
            .forward_range(z_in, self.from, self.to, Mode::Train);
        let (loss, dlogits) = self.ce.forward(&logits, labels);
        self.model.backward_range(&dlogits, self.from, self.to);
        loss
    }
}

impl AttackTarget for FinalWindowTarget<'_> {
    fn loss_and_input_grad(&mut self, z_in: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        let logits = self
            .model
            .forward_range(z_in, self.from, self.to, Mode::Eval);
        let (loss, dlogits) = self.ce.forward(&logits, labels);
        let dz = self
            .model
            .backward_input_range(&dlogits, self.from, self.to);
        (loss, dz)
    }

    fn logits(&mut self, z_in: &Tensor) -> Tensor {
        self.model
            .forward_range(z_in, self.from, self.to, Mode::Eval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_attack::{NormBall, Pgd, PgdConfig};
    use fp_nn::models;

    fn setup() -> (CascadeModel, AuxHead) {
        let mut rng = fp_tensor::seeded_rng(0);
        let model = models::tiny_vgg(3, 8, 4, &[6, 8, 12], &mut rng);
        let feature = model.feature_shape(2); // output of atom 1 window end
        let aux = AuxHead::new("aux", &feature, 4, &mut rng);
        (model, aux)
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
        let mut target = FinalWindowTarget::new(&mut model, n - 1, n);
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
