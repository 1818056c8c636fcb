//! FGSM and projected gradient descent.

use crate::target::AttackTarget;
use fp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// The perturbation constraint set: an ℓ∞ or ℓ2 ball of radius ε.
///
/// The paper bounds image perturbations in ℓ∞ (`ε₀ = 8/255`, §7.1) and
/// intermediate-feature perturbations in ℓ2 (Figure 8). ℓ2 constraints
/// apply **per sample**: for a rank ≥ 2 tensor the leading dimension is
/// the batch and every sample's perturbation is projected independently;
/// rank-1 tensors are treated as a single sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NormBall {
    /// `‖δ‖∞ ≤ ε`.
    Linf(f32),
    /// `‖δᵢ‖₂ ≤ ε` per sample `i`.
    L2(f32),
}

fn sample_len(shape: &[usize]) -> (usize, usize) {
    if shape.len() >= 2 {
        (shape[0], shape[1..].iter().product())
    } else {
        (1, shape.iter().product())
    }
}

impl NormBall {
    /// The radius ε.
    pub fn eps(&self) -> f32 {
        match *self {
            NormBall::Linf(e) | NormBall::L2(e) => e,
        }
    }

    /// Projects `delta` into the ball, in place.
    pub fn project(&self, delta: &mut Tensor) {
        match *self {
            NormBall::Linf(e) => delta.map_inplace(|v| v.clamp(-e, e)),
            NormBall::L2(e) => {
                let (batch, per) = sample_len(delta.shape());
                for s in 0..batch {
                    let row = &mut delta.data_mut()[s * per..(s + 1) * per];
                    let n = row.iter().map(|&v| v as f64 * v as f64).sum::<f64>().sqrt() as f32;
                    if n > e && n > 0.0 {
                        let k = e / n;
                        for v in row {
                            *v *= k;
                        }
                    }
                }
            }
        }
    }

    /// The ascent direction for a gradient: `sign(g)` for ℓ∞, per-sample
    /// `g/‖g‖₂` for ℓ2 (zero gradient yields a zero step).
    pub fn steepest(&self, grad: &Tensor) -> Tensor {
        match *self {
            NormBall::Linf(_) => grad.map(f32::signum),
            NormBall::L2(_) => {
                let (batch, per) = sample_len(grad.shape());
                let mut out = grad.clone();
                for s in 0..batch {
                    let row = &mut out.data_mut()[s * per..(s + 1) * per];
                    let n = row.iter().map(|&v| v as f64 * v as f64).sum::<f64>().sqrt() as f32;
                    if n > 0.0 {
                        for v in row {
                            *v /= n;
                        }
                    }
                }
                out
            }
        }
    }

    /// A random point in the ball (per-sample for ℓ2).
    pub fn random_init(&self, shape: &[usize], rng: &mut StdRng) -> Tensor {
        match *self {
            NormBall::Linf(e) => Tensor::rand_uniform(shape, -e, e, rng),
            NormBall::L2(e) => {
                let mut d = Tensor::randn(shape, 1.0, rng);
                let (batch, per) = sample_len(d.shape());
                for s in 0..batch {
                    let row = &mut d.data_mut()[s * per..(s + 1) * per];
                    let n = row
                        .iter()
                        .map(|&v| v as f64 * v as f64)
                        .sum::<f64>()
                        .sqrt()
                        .max(1e-12) as f32;
                    // Uniform radius scaling (not uniform in volume,
                    // adequate for a random start).
                    let r: f32 = rng.gen::<f32>() * e;
                    for v in row {
                        *v *= r / n;
                    }
                }
                d
            }
        }
    }
}

/// PGD attack configuration.
#[derive(Debug, Clone, Copy)]
pub struct PgdConfig {
    /// Ascent steps `n` (PGD-n).
    pub steps: usize,
    /// Step size α; `None` uses the standard `2.5·ε/steps`.
    pub alpha: Option<f32>,
    /// Constraint ball.
    pub ball: NormBall,
    /// Start from a random point in the ball.
    pub random_start: bool,
    /// Independent restarts; the per-sample worst loss wins.
    pub restarts: usize,
    /// Clamp adversarial examples into a data range (images: `(0, 1)`);
    /// `None` for unconstrained domains such as intermediate features.
    pub clamp: Option<(f32, f32)>,
}

impl PgdConfig {
    /// The paper's training attack: PGD-10 in ℓ∞.
    pub fn train_linf(eps: f32) -> Self {
        PgdConfig {
            steps: 10,
            alpha: None,
            ball: NormBall::Linf(eps),
            random_start: true,
            restarts: 1,
            clamp: Some((0.0, 1.0)),
        }
    }

    /// The paper's evaluation attack: PGD-20 in ℓ∞.
    pub fn eval_linf(eps: f32) -> Self {
        PgdConfig {
            steps: 20,
            ..Self::train_linf(eps)
        }
    }

    /// A fast variant for tests (PGD-3).
    pub fn fast(eps: f32) -> Self {
        PgdConfig {
            steps: 3,
            ..Self::train_linf(eps)
        }
    }

    /// Checks the configuration, naming the field at fault; [`Pgd::new`]
    /// runs it.
    ///
    /// # Panics
    ///
    /// Panics if `steps` or `restarts` is zero, or the ball's ε is not
    /// finite and positive (an infinite ε would make the random start's
    /// uniform draw meaningless).
    pub fn validate(&self) {
        assert!(
            self.steps > 0,
            "PgdConfig field `steps`: pgd needs at least one step"
        );
        assert!(
            self.restarts > 0,
            "PgdConfig field `restarts`: pgd needs at least one restart"
        );
        let eps = self.ball.eps();
        assert!(
            eps > 0.0 && eps.is_finite(),
            "PgdConfig field `ball`: epsilon must be positive and finite, got {eps}"
        );
    }

    /// Effective step size.
    pub fn step_size(&self) -> f32 {
        self.alpha
            .unwrap_or_else(|| 2.5 * self.ball.eps() / self.steps.max(1) as f32)
    }
}

/// Projected gradient descent (Madry et al. 2017).
#[derive(Debug, Clone, Copy)]
pub struct Pgd {
    cfg: PgdConfig,
}

impl Pgd {
    /// Creates a PGD attack.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`PgdConfig::validate`].
    pub fn new(cfg: PgdConfig) -> Self {
        cfg.validate();
        Pgd { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &PgdConfig {
        &self.cfg
    }

    /// Produces adversarial examples for `(x, labels)`: [`Pgd::attack_from`]
    /// the [`Pgd::starts`] drawn from `rng`.
    ///
    /// With multiple restarts, each sample keeps the restart that maximized
    /// its own loss.
    pub fn attack(
        &self,
        target: &mut dyn AttackTarget,
        x: &Tensor,
        labels: &[usize],
        rng: &mut StdRng,
    ) -> Tensor {
        let starts = self.starts(x.shape(), rng);
        self.attack_from(target, x, labels, &starts)
    }

    /// The starting perturbations of an attack on inputs of `shape`, one
    /// per restart, in [`Pgd::attack`]'s draw order: a random point in the
    /// ball with `random_start` (for ℓ2 one per sample), zeros otherwise.
    /// The runs draw nothing, so drawing every start first changes no bit —
    /// and a batch split by sample slices these rows instead of drawing
    /// its own.
    pub fn starts(&self, shape: &[usize], rng: &mut StdRng) -> Vec<Tensor> {
        (0..self.cfg.restarts)
            .map(|_| {
                if self.cfg.random_start {
                    self.cfg.ball.random_init(shape, rng)
                } else {
                    Tensor::zeros(shape)
                }
            })
            .collect()
    }

    /// [`Pgd::attack`] from the given starts (one run per start; each
    /// sample keeps its worst run). Every step of a run is per sample —
    /// elementwise in ℓ∞, one norm per row in ℓ2 — so rows of `x` attacked
    /// in chunks against a target whose loss is the mean over the whole
    /// batch give the rows of one attack on the batch, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `starts` is empty.
    pub fn attack_from(
        &self,
        target: &mut dyn AttackTarget,
        x: &Tensor,
        labels: &[usize],
        starts: &[Tensor],
    ) -> Tensor {
        if let [start] = starts {
            return self.run_from(target, x, labels, start.clone());
        }
        assert!(!starts.is_empty(), "pgd needs a start");
        let mut best = x.clone();
        let mut best_loss = vec![f32::NEG_INFINITY; labels.len()];
        for start in starts {
            let adv = self.run_from(target, x, labels, start.clone());
            let losses = target.per_sample_loss(&adv, labels);
            keep_per_sample_best(&mut best, &mut best_loss, &adv, &losses);
        }
        best
    }

    /// One run of `steps` ascent steps from the perturbation `delta`.
    fn run_from(
        &self,
        target: &mut dyn AttackTarget,
        x: &Tensor,
        labels: &[usize],
        mut delta: Tensor,
    ) -> Tensor {
        let alpha = self.cfg.step_size();
        for _ in 0..self.cfg.steps {
            let adv = self.apply(x, &delta);
            let (_, grad) = target.loss_and_input_grad(&adv, labels);
            let dir = self.cfg.ball.steepest(&grad);
            delta.axpy(alpha, &dir);
            self.cfg.ball.project(&mut delta);
            if let Some((lo, hi)) = self.cfg.clamp {
                // Keep x+δ in the data range by folding the clamp into δ.
                for (d, &xv) in delta.data_mut().iter_mut().zip(x.data()) {
                    *d = (xv + *d).clamp(lo, hi) - xv;
                }
            }
        }
        self.apply(x, &delta)
    }

    fn apply(&self, x: &Tensor, delta: &Tensor) -> Tensor {
        let mut adv = x.add(delta);
        if let Some((lo, hi)) = self.cfg.clamp {
            adv = adv.clamp(lo, hi);
        }
        adv
    }
}

/// Single-step FGSM (Goodfellow et al. 2014): `x + ε·sign(∇ₓl)`, clamped.
pub fn fgsm(
    target: &mut dyn AttackTarget,
    x: &Tensor,
    labels: &[usize],
    eps: f32,
    clamp: Option<(f32, f32)>,
) -> Tensor {
    assert!(eps > 0.0, "epsilon must be positive");
    let (_, grad) = target.loss_and_input_grad(x, labels);
    let mut adv = x.clone();
    adv.axpy(eps, &grad.map(f32::signum));
    if let Some((lo, hi)) = clamp {
        adv = adv.clamp(lo, hi);
    }
    adv
}

/// Parameter-space targeted poisoning: projected gradient steps that pull
/// a parameter vector toward an attacker-chosen `target`, constrained to
/// a [`NormBall`] around the honest `start` — the same machinery PGD uses
/// on inputs, turned on a federated client's uplink update. The bounded
/// perturbation is what makes the poison *stealthy*: it survives
/// norm-based server defenses that would catch an unconstrained
/// replacement.
///
/// The objective is `½‖(start + δ) − target‖²`, whose gradient in `δ` is
/// `(start + δ) − target`; each of `steps` iterations descends along the
/// steepest direction for the ball's norm, with the step length clamped by
/// the remaining distance to the target so an in-ball target is reached
/// exactly rather than orbited at the step radius, then re-projects.
/// Deterministic — no random start, no restarts.
///
/// # Panics
///
/// Panics if the vectors disagree in length, `steps` is zero, or ε is
/// not positive.
pub fn poison_params(start: &[f32], target: &[f32], ball: NormBall, steps: usize) -> Vec<f32> {
    assert_eq!(start.len(), target.len(), "poison target length mismatch");
    assert!(steps > 0, "poison needs at least one step");
    assert!(ball.eps() > 0.0, "epsilon must be positive");
    let alpha = 2.5 * ball.eps() / steps as f32;
    let mut delta = Tensor::zeros(&[start.len()]);
    for _ in 0..steps {
        // grad = (start + δ) − target, computed in place of a scratch.
        let mut grad = delta.clone();
        for ((g, &s), &t) in grad.data_mut().iter_mut().zip(start).zip(target) {
            *g += s - t;
        }
        // Steepest descent for the ball's norm, but never past the target:
        // a fixed-length step would oscillate around any target closer
        // than α instead of converging onto it.
        match ball {
            NormBall::Linf(_) => {
                for (d, &g) in delta.data_mut().iter_mut().zip(grad.data()) {
                    *d -= g.clamp(-alpha, alpha);
                }
            }
            NormBall::L2(_) => {
                let n = grad
                    .data()
                    .iter()
                    .map(|&v| v as f64 * v as f64)
                    .sum::<f64>()
                    .sqrt() as f32;
                if n > 0.0 {
                    delta.axpy(-(alpha.min(n) / n), &grad);
                }
            }
        }
        ball.project(&mut delta);
    }
    start
        .iter()
        .zip(delta.data())
        .map(|(&s, &d)| s + d)
        .collect()
}

pub(crate) fn keep_per_sample_best(
    best: &mut Tensor,
    best_loss: &mut [f32],
    cand: &Tensor,
    cand_loss: &[f32],
) {
    let batch = best_loss.len();
    let per = best.numel() / batch;
    for s in 0..batch {
        if cand_loss[s] > best_loss[s] {
            best_loss[s] = cand_loss[s];
            best.data_mut()[s * per..(s + 1) * per]
                .copy_from_slice(&cand.data()[s * per..(s + 1) * per]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::ModelTarget;
    use fp_nn::models;

    #[test]
    fn linf_projection_bounds_coordinates() {
        let ball = NormBall::Linf(0.1);
        let mut d = Tensor::from_vec(vec![0.5, -0.5, 0.05], &[3]);
        ball.project(&mut d);
        assert_eq!(d.data(), &[0.1, -0.1, 0.05]);
    }

    #[test]
    fn l2_projection_preserves_direction() {
        let ball = NormBall::L2(1.0);
        let mut d = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        ball.project(&mut d);
        assert!((d.norm_l2() - 1.0).abs() < 1e-5);
        assert!((d.data()[0] / d.data()[1] - 0.75).abs() < 1e-5);
    }

    #[test]
    fn l2_projection_is_per_sample() {
        // Batch of two samples: one inside the ball, one outside; only
        // the outside one is rescaled.
        let ball = NormBall::L2(1.0);
        let mut d = Tensor::from_vec(vec![0.3, 0.4, 3.0, 4.0], &[2, 2]);
        ball.project(&mut d);
        assert!((d.data()[0] - 0.3).abs() < 1e-6, "inside sample untouched");
        let n1 = (d.data()[2] * d.data()[2] + d.data()[3] * d.data()[3]).sqrt();
        assert!((n1 - 1.0).abs() < 1e-5, "outside sample projected");
    }

    #[test]
    fn l2_random_init_per_sample_radius() {
        let mut rng = fp_tensor::seeded_rng(8);
        let d = NormBall::L2(0.7).random_init(&[5, 16], &mut rng);
        for s in 0..5 {
            let row = &d.data()[s * 16..(s + 1) * 16];
            let n: f32 = row.iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!(n <= 0.7 + 1e-5, "sample {s} norm {n}");
        }
    }

    #[test]
    fn l2_projection_noop_inside_ball() {
        let ball = NormBall::L2(10.0);
        let mut d = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        ball.project(&mut d);
        assert_eq!(d.data(), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(
        expected = "PgdConfig field `ball`: epsilon must be positive and finite, got inf"
    )]
    fn pgd_config_rejects_an_infinite_epsilon() {
        Pgd::new(PgdConfig::train_linf(f32::INFINITY));
    }

    #[test]
    fn random_init_stays_in_ball() {
        let mut rng = fp_tensor::seeded_rng(3);
        for _ in 0..20 {
            let d = NormBall::Linf(0.03).random_init(&[8], &mut rng);
            assert!(d.norm_linf() <= 0.03 + 1e-6);
            let d = NormBall::L2(0.5).random_init(&[8], &mut rng);
            assert!(d.norm_l2() <= 0.5 + 1e-5);
        }
    }

    #[test]
    fn pgd_perturbation_within_ball_and_range() {
        let mut rng = fp_tensor::seeded_rng(4);
        let mut model = models::tiny_vgg(3, 8, 4, &[4, 8], &mut rng);
        let x = Tensor::rand_uniform(&[3, 3, 8, 8], 0.0, 1.0, &mut rng);
        let labels = [0, 1, 2];
        let eps = 8.0 / 255.0;
        let pgd = Pgd::new(PgdConfig::fast(eps));
        let mut target = ModelTarget::new(&mut model);
        let adv = pgd.attack(&mut target, &x, &labels, &mut rng);
        let delta = adv.sub(&x);
        assert!(delta.norm_linf() <= eps + 1e-5, "ball violated");
        assert!(adv.min() >= 0.0 && adv.max() <= 1.0, "range violated");
    }

    #[test]
    fn pgd_increases_loss() {
        let mut rng = fp_tensor::seeded_rng(5);
        let mut model = models::tiny_vgg(3, 8, 4, &[8, 16], &mut rng);
        let x = Tensor::rand_uniform(&[4, 3, 8, 8], 0.0, 1.0, &mut rng);
        let labels = [0, 1, 2, 3];
        let pgd = Pgd::new(PgdConfig {
            steps: 5,
            ..PgdConfig::train_linf(0.1)
        });
        let mut target = ModelTarget::new(&mut model);
        let (clean_loss, _) = target.loss_and_input_grad(&x, &labels);
        let adv = pgd.attack(&mut target, &x, &labels, &mut rng);
        let (adv_loss, _) = target.loss_and_input_grad(&adv, &labels);
        assert!(
            adv_loss > clean_loss,
            "adversarial loss {adv_loss} not above clean {clean_loss}"
        );
    }

    #[test]
    fn restarts_never_hurt() {
        let mut rng = fp_tensor::seeded_rng(6);
        let mut model = models::tiny_vgg(3, 8, 4, &[8, 16], &mut rng);
        let x = Tensor::rand_uniform(&[4, 3, 8, 8], 0.0, 1.0, &mut rng);
        let labels = [0, 1, 2, 3];
        let one = Pgd::new(PgdConfig {
            steps: 3,
            restarts: 1,
            ..PgdConfig::train_linf(0.05)
        });
        let many = Pgd::new(PgdConfig {
            steps: 3,
            restarts: 3,
            ..PgdConfig::train_linf(0.05)
        });
        let mut rng_a = fp_tensor::seeded_rng(100);
        let mut rng_b = fp_tensor::seeded_rng(100);
        let mut target = ModelTarget::new(&mut model);
        let adv1 = one.attack(&mut target, &x, &labels, &mut rng_a);
        let loss1: f32 = target.per_sample_loss(&adv1, &labels).iter().sum();
        let advn = many.attack(&mut target, &x, &labels, &mut rng_b);
        let lossn: f32 = target.per_sample_loss(&advn, &labels).iter().sum();
        assert!(
            lossn >= loss1 - 1e-5,
            "restarts lowered loss: {lossn} < {loss1}"
        );
    }

    #[test]
    fn poison_stays_in_ball_and_approaches_target() {
        let start = vec![1.0f32, -2.0, 0.5, 0.0];
        let target = vec![0.0f32; 4];
        let eps = 0.25;
        let poisoned = poison_params(&start, &target, NormBall::Linf(eps), 5);
        for (p, s) in poisoned.iter().zip(&start) {
            assert!((p - s).abs() <= eps + 1e-6, "ball violated: {p} vs {s}");
        }
        let d0: f32 = start.iter().map(|v| v * v).sum();
        let d1: f32 = poisoned.iter().map(|v| v * v).sum();
        assert!(d1 < d0, "poison must move toward the target");
        // Deterministic: same inputs, same poison.
        assert_eq!(
            poisoned,
            poison_params(&start, &target, NormBall::Linf(eps), 5)
        );
    }

    #[test]
    fn poison_reaches_target_inside_ball() {
        // Target within ε of start: enough steps land exactly on it.
        let start = vec![0.1f32, -0.1];
        let target = vec![0.15f32, -0.05];
        let poisoned = poison_params(&start, &target, NormBall::L2(1.0), 50);
        for (p, t) in poisoned.iter().zip(&target) {
            assert!((p - t).abs() < 0.02, "poison {p} should approach {t}");
        }
    }

    #[test]
    fn fgsm_respects_epsilon() {
        let mut rng = fp_tensor::seeded_rng(7);
        let mut model = models::tiny_vgg(3, 8, 4, &[4, 8], &mut rng);
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], 0.2, 0.8, &mut rng);
        let mut target = ModelTarget::new(&mut model);
        let adv = fgsm(&mut target, &x, &[0, 1], 0.02, Some((0.0, 1.0)));
        assert!(adv.sub(&x).norm_linf() <= 0.02 + 1e-6);
    }
}
