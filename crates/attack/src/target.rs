//! The attack target abstraction.

use fp_nn::{CascadeModel, CrossEntropyLoss};
use fp_tensor::Tensor;

/// Anything an attack can differentiate through: produces logits and the
/// loss gradient with respect to its *input*.
///
/// Two implementations matter in this workspace:
///
/// * [`ModelTarget`] — a whole cascade model attacked at the image input
///   (standard adversarial training/evaluation);
/// * `ModuleTarget` in the `fedprophet` crate — a module window plus its
///   auxiliary head, attacked at the intermediate feature `z_{m−1}`
///   (adversarial cascade learning, paper §5.1).
pub trait AttackTarget {
    /// Mean loss over the batch and its gradient with respect to `x`.
    ///
    /// Implementations must not touch parameter gradients: an attack pass
    /// is forward + dX only (`fp_nn::Layer::backward_input`), so whatever
    /// the caller had accumulated is bitwise the same afterwards. Attacking
    /// a model mid-accumulation is therefore safe.
    fn loss_and_input_grad(&mut self, x: &Tensor, labels: &[usize]) -> (f32, Tensor);

    /// Logits `[batch, classes]` for `x`, without caching gradients.
    fn logits(&mut self, x: &Tensor) -> Tensor;

    /// Per-sample cross-entropy losses (used by multi-restart attacks to
    /// keep each sample's worst adversarial example).
    fn per_sample_loss(&mut self, x: &Tensor, labels: &[usize]) -> Vec<f32> {
        per_sample_ce(&self.logits(x), labels)
    }
}

/// Per-sample cross-entropy from logits.
pub(crate) fn per_sample_ce(logits: &Tensor, labels: &[usize]) -> Vec<f32> {
    let lp = fp_tensor::log_softmax_rows(logits);
    let classes = logits.shape()[1];
    labels
        .iter()
        .enumerate()
        .map(|(r, &y)| -lp.data()[r * classes + y])
        .collect()
}

/// An [`AttackTarget`] over a full [`CascadeModel`]: the attack-pass
/// forward ([`CascadeModel::forward_dx_only`], the `Eval` output — fixed BN
/// statistics make the inner maximization well-defined — caching only what
/// dX reads), then the input-gradient-only backward: parameter gradients
/// are not touched.
pub struct ModelTarget<'a> {
    model: &'a mut CascadeModel,
    loss: CrossEntropyLoss,
}

impl<'a> ModelTarget<'a> {
    /// Wraps a model for attacking.
    pub fn new(model: &'a mut CascadeModel) -> Self {
        ModelTarget {
            model,
            loss: CrossEntropyLoss::new(),
        }
    }

    /// The target of a row chunk of an `n`-row batch: its loss and
    /// gradient are divided by `n` ([`CrossEntropyLoss::mean_over`]).
    pub fn mean_over(self, n: usize) -> Self {
        ModelTarget {
            loss: CrossEntropyLoss::mean_over(n),
            ..self
        }
    }
}

impl AttackTarget for ModelTarget<'_> {
    fn loss_and_input_grad(&mut self, x: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        let logits = self.model.forward_dx_only(x);
        let (loss, dlogits) = self.loss.forward(&logits, labels);
        let dx = self.model.backward_input(&dlogits);
        (loss, dx)
    }

    fn logits(&mut self, x: &Tensor) -> Tensor {
        self.model.forward_dx_only(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_nn::models;

    #[test]
    fn input_grad_has_input_shape_and_params_stay_clean() {
        let mut rng = fp_tensor::seeded_rng(0);
        let mut model = models::tiny_vgg(3, 8, 4, &[4, 8], &mut rng);
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        // A caller mid-accumulation: every gradient holds something.
        for p in model.params_mut() {
            *p.grad_mut() = Tensor::rand_uniform(p.grad().shape(), -1.0, 1.0, &mut rng);
        }
        let grads = |m: &CascadeModel| -> Vec<Tensor> {
            m.params().iter().map(|p| p.grad().clone()).collect()
        };
        let seeded = grads(&model);
        let mut target = ModelTarget::new(&mut model);
        let (loss, dx) = target.loss_and_input_grad(&x, &[0, 1]);
        assert!(loss.is_finite());
        assert_eq!(dx.shape(), x.shape());
        assert_eq!(
            grads(&model),
            seeded,
            "attack pass touched a parameter gradient"
        );
    }

    #[test]
    fn per_sample_loss_matches_mean() {
        let mut rng = fp_tensor::seeded_rng(1);
        let mut model = models::tiny_vgg(3, 8, 4, &[4, 8], &mut rng);
        let x = Tensor::rand_uniform(&[4, 3, 8, 8], 0.0, 1.0, &mut rng);
        let labels = [0, 1, 2, 3];
        let mut target = ModelTarget::new(&mut model);
        let per = target.per_sample_loss(&x, &labels);
        let (mean, _) = target.loss_and_input_grad(&x, &labels);
        let avg: f32 = per.iter().sum::<f32>() / 4.0;
        assert!((mean - avg).abs() < 1e-4, "{mean} vs {avg}");
    }
}
