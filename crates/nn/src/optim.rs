//! Optimizers and learning-rate schedules.

use crate::param::Param;
use serde::{Deserialize, Serialize};

/// Exponentially decaying learning rate: `η_t = γ^t · η_0` (paper §B.4 uses
/// `γ = 0.994` per communication round).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LrSchedule {
    /// Initial learning rate.
    pub eta0: f32,
    /// Per-round decay factor.
    pub gamma: f32,
}

impl LrSchedule {
    /// Creates a schedule.
    ///
    /// # Panics
    ///
    /// Panics unless `eta0 > 0` and `gamma ∈ (0, 1]`.
    pub fn new(eta0: f32, gamma: f32) -> Self {
        assert!(eta0 > 0.0, "eta0 must be positive");
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0,1]");
        LrSchedule { eta0, gamma }
    }

    /// A constant schedule.
    pub fn constant(eta: f32) -> Self {
        LrSchedule::new(eta, 1.0)
    }

    /// Learning rate at round `t`.
    pub fn at(&self, t: usize) -> f32 {
        self.eta0 * self.gamma.powi(t as i32)
    }
}

/// SGD with momentum and decoupled weight decay, operating on a layer's
/// parameter list.
///
/// Velocity buffers are keyed by position, so the optimizer must always be
/// stepped with the same parameter list (the standard pattern: one `Sgd`
/// per locally trained model). The update is the PyTorch convention:
///
/// ```text
/// g ← grad + wd·θ
/// v ← μ·v + g
/// θ ← θ − lr·v
/// ```
#[derive(Debug, Clone, Default)]
pub struct Sgd {
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `momentum ∉ [0, 1)` or `weight_decay < 0`.
    pub fn new(momentum: f32, weight_decay: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        Sgd {
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    /// Applies one update with learning rate `lr` to `params`, consuming
    /// their accumulated gradients (gradients are zeroed afterwards).
    ///
    /// # Panics
    ///
    /// Panics if the parameter list changes shape between calls.
    pub fn step(&mut self, params: &mut [&mut Param], lr: f32) {
        if self.velocity.is_empty() {
            self.velocity = params.iter().map(|p| vec![0.0; p.numel()]).collect();
        }
        assert_eq!(
            self.velocity.len(),
            params.len(),
            "optimizer bound to a different parameter list"
        );
        let (wd, mu) = (self.weight_decay, self.momentum);
        for (p, v) in params.iter_mut().zip(self.velocity.iter_mut()) {
            assert_eq!(v.len(), p.numel(), "parameter {} changed size", p.name());
            let (value, grad) = p.value_and_grad_mut();
            for ((w, g), v) in value.iter_mut().zip(grad.iter_mut()).zip(v.iter_mut()) {
                let d = *g + wd * *w;
                *v = mu * *v + d;
                *w -= lr * *v;
                *g = 0.0;
            }
        }
    }

    /// Clears velocity (e.g. when a client receives fresh global weights).
    pub fn reset(&mut self) {
        self.velocity.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_tensor::Tensor;

    fn param(vals: &[f32]) -> Param {
        Param::new("p", Tensor::from_vec(vals.to_vec(), &[vals.len()]))
    }

    #[test]
    fn plain_sgd_step() {
        let mut p = param(&[1.0, 2.0]);
        p.grad_mut().data_mut().copy_from_slice(&[0.5, -0.5]);
        let mut opt = Sgd::new(0.0, 0.0);
        opt.step(&mut [&mut p], 0.1);
        assert_eq!(p.value().data(), &[0.95, 2.05]);
        assert_eq!(p.grad().data(), &[0.0, 0.0], "grad consumed");
    }

    #[test]
    fn momentum_accumulates() {
        let mut p = param(&[0.0]);
        let mut opt = Sgd::new(0.9, 0.0);
        for _ in 0..2 {
            p.grad_mut().data_mut()[0] = 1.0;
            opt.step(&mut [&mut p], 1.0);
        }
        // v1=1, θ=-1; v2=1.9, θ=-2.9.
        assert!((p.value().data()[0] + 2.9).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_pulls_toward_zero() {
        let mut p = param(&[10.0]);
        let mut opt = Sgd::new(0.0, 0.1);
        p.zero_grad();
        opt.step(&mut [&mut p], 0.5);
        // θ = 10 − 0.5·(0 + 0.1·10) = 9.5.
        assert!((p.value().data()[0] - 9.5).abs() < 1e-6);
    }

    #[test]
    fn reset_clears_velocity() {
        let mut p = param(&[0.0]);
        let mut opt = Sgd::new(0.9, 0.0);
        p.grad_mut().data_mut()[0] = 1.0;
        opt.step(&mut [&mut p], 1.0);
        opt.reset();
        p.grad_mut().data_mut()[0] = 1.0;
        opt.step(&mut [&mut p], 1.0);
        // After reset the second step is not boosted by momentum: θ = -2.
        assert!((p.value().data()[0] + 2.0).abs() < 1e-6);
    }

    /// The per-index loop `step` was before it became one pass over
    /// zipped slices: the same three updates per element, then the
    /// gradient zeroed.
    fn step_per_index(opt: &mut Sgd, params: &mut [&mut Param], lr: f32) {
        if opt.velocity.is_empty() {
            opt.velocity = params.iter().map(|p| vec![0.0; p.numel()]).collect();
        }
        for (p, v) in params.iter_mut().zip(opt.velocity.iter_mut()) {
            let (wd, mu) = (opt.weight_decay, opt.momentum);
            #[allow(clippy::needless_range_loop)] // index shared across several buffers
            for i in 0..p.numel() {
                let g = p.grad().data()[i] + wd * p.value().data()[i];
                v[i] = mu * v[i] + g;
                p.value_mut().data_mut()[i] -= lr * v[i];
            }
            p.zero_grad();
        }
    }

    /// `step` equals the per-index loop bit for bit (NaN as NaN) over
    /// several steps of velocity, with and without momentum and weight
    /// decay, on parameters holding ±0, ±inf, NaN, subnormals and values
    /// whose products overflow, in tensors of lengths around the vector
    /// width.
    #[test]
    fn sgd_step_matches_per_index_loop_bitwise() {
        let specials = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1e-40,
            -3e38,
            2.5,
        ];
        let vals = |n: usize, seed: usize| -> Vec<f32> {
            (0..n)
                .map(|i| {
                    let k = (i * 7 + seed * 13) % 23;
                    if k < specials.len() {
                        specials[k]
                    } else {
                        (k as f32 - 15.0) * 0.37
                    }
                })
                .collect()
        };
        let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        for (mu, wd) in [(0.9, 5e-4), (0.0, 5e-4), (0.9, 0.0), (0.0, 0.0)] {
            let lens = [1usize, 7, 16, 33, 100];
            let make = || -> Vec<Param> { lens.iter().map(|&n| param(&vals(n, n))).collect() };
            let (mut got, mut want) = (make(), make());
            let (mut opt, mut reference) = (Sgd::new(mu, wd), Sgd::new(mu, wd));
            for step in 0..4 {
                for (a, b) in got.iter_mut().zip(want.iter_mut()) {
                    let g = vals(a.numel(), step + 3);
                    a.grad_mut().data_mut().copy_from_slice(&g);
                    b.grad_mut().data_mut().copy_from_slice(&g);
                }
                opt.step(&mut got.iter_mut().collect::<Vec<_>>(), 0.05);
                step_per_index(
                    &mut reference,
                    &mut want.iter_mut().collect::<Vec<_>>(),
                    0.05,
                );
                for (a, b) in got.iter().zip(&want) {
                    for (x, y) in a.value().data().iter().zip(b.value().data()) {
                        assert!(same(*x, *y), "mu {mu} wd {wd} step {step}: {x} vs {y}");
                    }
                    assert!(
                        a.grad().data().iter().all(|g| g.to_bits() == 0),
                        "grad zeroed"
                    );
                }
                for (u, w) in opt
                    .velocity
                    .iter()
                    .flatten()
                    .zip(reference.velocity.iter().flatten())
                {
                    assert!(
                        same(*u, *w),
                        "velocity mu {mu} wd {wd} step {step}: {u} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn schedule_decays_exponentially() {
        let s = LrSchedule::new(0.1, 0.5);
        assert!((s.at(0) - 0.1).abs() < 1e-7);
        assert!((s.at(2) - 0.025).abs() < 1e-7);
        assert_eq!(LrSchedule::constant(0.01).at(100), 0.01);
    }

    #[test]
    #[should_panic(expected = "momentum must be in")]
    fn rejects_bad_momentum() {
        Sgd::new(1.0, 0.0);
    }
}
