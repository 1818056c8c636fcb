//! APGD: the AutoAttack surrogate.

use crate::pgd::{keep_per_sample_best, NormBall};
use crate::target::AttackTarget;
use fp_tensor::Tensor;
use rand::rngs::StdRng;

/// Configuration of the APGD attack.
#[derive(Debug, Clone, Copy)]
pub struct ApgdConfig {
    /// Total ascent iterations per restart.
    pub steps: usize,
    /// Independent restarts (per-sample worst case wins).
    pub restarts: usize,
    /// Constraint ball.
    pub ball: NormBall,
    /// Data-range clamp (images: `(0, 1)`).
    pub clamp: Option<(f32, f32)>,
    /// Gradient momentum coefficient (AutoAttack uses 0.75).
    pub momentum: f32,
    /// Plateau window: the step size halves when the best loss fails to
    /// improve over this many consecutive iterations.
    pub plateau: usize,
}

impl ApgdConfig {
    /// The evaluation configuration used for the paper's "AA Acc." columns:
    /// stronger than PGD-20 (more steps, momentum, adaptive step size,
    /// restarts).
    pub fn eval_linf(eps: f32) -> Self {
        ApgdConfig {
            steps: 30,
            restarts: 2,
            ball: NormBall::Linf(eps),
            clamp: Some((0.0, 1.0)),
            momentum: 0.75,
            plateau: 5,
        }
    }

    /// A fast variant for tests.
    pub fn fast(eps: f32) -> Self {
        ApgdConfig {
            steps: 5,
            restarts: 1,
            ..Self::eval_linf(eps)
        }
    }
}

/// Momentum-accelerated PGD with adaptive step halving — a single-attack
/// surrogate for the AutoAttack ensemble (Croce & Hein 2020). See the crate
/// docs for the substitution argument.
#[derive(Debug, Clone, Copy)]
pub struct Apgd {
    cfg: ApgdConfig,
}

impl Apgd {
    /// Creates an APGD attack.
    ///
    /// # Panics
    ///
    /// Panics on zero steps/restarts or an ε that is not positive and
    /// finite.
    pub fn new(cfg: ApgdConfig) -> Self {
        assert!(cfg.steps > 0, "apgd needs at least one step");
        assert!(cfg.restarts > 0, "apgd needs at least one restart");
        let eps = cfg.ball.eps();
        assert!(
            eps > 0.0 && eps.is_finite(),
            "ApgdConfig field `ball`: epsilon must be positive and finite, got {eps}"
        );
        Apgd { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &ApgdConfig {
        &self.cfg
    }

    /// Produces adversarial examples for `(x, labels)`.
    pub fn attack(
        &self,
        target: &mut dyn AttackTarget,
        x: &Tensor,
        labels: &[usize],
        rng: &mut StdRng,
    ) -> Tensor {
        let mut best = x.clone();
        let mut best_loss = target.per_sample_loss(x, labels);
        for _ in 0..self.cfg.restarts {
            let adv = self.single_run(target, x, labels, rng);
            let losses = target.per_sample_loss(&adv, labels);
            keep_per_sample_best(&mut best, &mut best_loss, &adv, &losses);
        }
        best
    }

    fn single_run(
        &self,
        target: &mut dyn AttackTarget,
        x: &Tensor,
        labels: &[usize],
        rng: &mut StdRng,
    ) -> Tensor {
        let mut delta = self.cfg.ball.random_init(x.shape(), rng);
        let mut alpha = 2.0 * self.cfg.ball.eps();
        let mut velocity = Tensor::zeros(x.shape());
        let mut best_delta = delta.clone();
        let mut best_loss = f32::NEG_INFINITY;
        let mut since_improve = 0usize;
        for _ in 0..self.cfg.steps {
            let adv = self.apply(x, &delta);
            let (loss, grad) = target.loss_and_input_grad(&adv, labels);
            if loss > best_loss {
                best_loss = loss;
                best_delta = delta.clone();
                since_improve = 0;
            } else {
                since_improve += 1;
                if since_improve >= self.cfg.plateau {
                    alpha *= 0.5;
                    since_improve = 0;
                    // Restart the trajectory from the best point found.
                    delta = best_delta.clone();
                    velocity = Tensor::zeros(x.shape());
                }
            }
            let dir = self.cfg.ball.steepest(&grad);
            // Heavy-ball momentum on the steepest direction.
            velocity = velocity.scale(self.cfg.momentum).add(&dir);
            delta.axpy(alpha, &velocity);
            self.cfg.ball.project(&mut delta);
            if let Some((lo, hi)) = self.cfg.clamp {
                for (d, &xv) in delta.data_mut().iter_mut().zip(x.data()) {
                    *d = (xv + *d).clamp(lo, hi) - xv;
                }
            }
        }
        // Return the best iterate, not the last.
        let final_adv = self.apply(x, &delta);
        let final_loss = {
            let (l, _) = target.loss_and_input_grad(&final_adv, labels);
            l
        };
        if final_loss >= best_loss {
            final_adv
        } else {
            self.apply(x, &best_delta)
        }
    }

    fn apply(&self, x: &Tensor, delta: &Tensor) -> Tensor {
        let mut adv = x.add(delta);
        if let Some((lo, hi)) = self.cfg.clamp {
            adv = adv.clamp(lo, hi);
        }
        adv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pgd::{Pgd, PgdConfig};
    use crate::target::ModelTarget;
    use fp_nn::models;

    #[test]
    #[should_panic(expected = "ApgdConfig field `ball`: epsilon must be positive and finite")]
    fn apgd_rejects_an_infinite_epsilon() {
        Apgd::new(ApgdConfig::fast(f32::INFINITY));
    }

    #[test]
    fn apgd_stays_in_ball_and_range() {
        let mut rng = fp_tensor::seeded_rng(1);
        let mut model = models::tiny_vgg(3, 8, 4, &[4, 8], &mut rng);
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let eps = 8.0 / 255.0;
        let apgd = Apgd::new(ApgdConfig::fast(eps));
        let mut target = ModelTarget::new(&mut model);
        let adv = apgd.attack(&mut target, &x, &[0, 1], &mut rng);
        assert!(adv.sub(&x).norm_linf() <= eps + 1e-5);
        assert!(adv.min() >= 0.0 && adv.max() <= 1.0);
    }

    #[test]
    fn apgd_at_least_as_strong_as_equal_budget_pgd() {
        // The paper's ordering Clean ≥ PGD ≥ AA relies on the AA surrogate
        // being the stronger attack; compare total per-sample loss.
        let mut rng = fp_tensor::seeded_rng(2);
        let mut model = models::tiny_vgg(3, 8, 4, &[8, 16], &mut rng);
        let x = Tensor::rand_uniform(&[6, 3, 8, 8], 0.0, 1.0, &mut rng);
        let labels = [0, 1, 2, 3, 0, 1];
        let eps = 0.05;
        let mut target = ModelTarget::new(&mut model);

        let pgd = Pgd::new(PgdConfig {
            steps: 10,
            ..PgdConfig::eval_linf(eps)
        });
        let mut rng_a = fp_tensor::seeded_rng(9);
        let adv_pgd = pgd.attack(&mut target, &x, &labels, &mut rng_a);
        let loss_pgd: f32 = target.per_sample_loss(&adv_pgd, &labels).iter().sum();

        let apgd = Apgd::new(ApgdConfig {
            steps: 10,
            restarts: 2,
            ..ApgdConfig::eval_linf(eps)
        });
        let mut rng_b = fp_tensor::seeded_rng(9);
        let adv_apgd = apgd.attack(&mut target, &x, &labels, &mut rng_b);
        let loss_apgd: f32 = target.per_sample_loss(&adv_apgd, &labels).iter().sum();

        assert!(
            loss_apgd >= loss_pgd * 0.95,
            "apgd {loss_apgd} much weaker than pgd {loss_pgd}"
        );
    }
}
