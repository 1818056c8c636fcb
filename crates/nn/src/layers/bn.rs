//! Batch normalization over channels.

use crate::layer::{Layer, Mode};
use crate::param::Param;
use crate::spec::{LayerKind, LayerSpec};
use fp_tensor::Tensor;

const EPS: f32 = 1e-5;

/// Batch normalization for `[batch, c, h, w]` inputs.
///
/// In `Train` mode it normalizes with live batch statistics and updates
/// exponential running statistics (momentum 0.1); in `Eval` mode it uses
/// the running statistics. Running statistics are exposed through
/// [`Layer::bn_stats`] because the FedRBN baseline propagates adversarial
/// BN statistics across clients.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    c: usize,
    group: usize,
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    mode: Mode,
    /// Elements per channel in the normalized batch (`b·h·w`).
    n_per_c: usize,
}

/// Per-channel `(Σ dy·x̂, Σ dy)` over the batch.
type ChannelSums = (Vec<f32>, Vec<f32>);

impl Cache {
    /// The two reductions of a backward pass: they are dγ and dβ, and
    /// train-mode dX needs them too, so `backward` and `backward_input`
    /// share this one summation order.
    fn channel_sums(&self, grad_out: &Tensor) -> ChannelSums {
        let (b, c, h, w) = dims4(grad_out);
        let hw = h * w;
        let mut dgamma = vec![0.0f32; c];
        let mut dbeta = vec![0.0f32; c];
        #[allow(clippy::needless_range_loop)] // index addresses per-channel planes
        for s in 0..b {
            for ch in 0..c {
                let off = (s * c + ch) * hw;
                let dy = &grad_out.data()[off..off + hw];
                let x_hat = &self.x_hat.data()[off..off + hw];
                for (&g, &xh) in dy.iter().zip(x_hat) {
                    dgamma[ch] += g * xh;
                    dbeta[ch] += g;
                }
            }
        }
        (dgamma, dbeta)
    }
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `c` channels in channel group
    /// `group`, with γ=1, β=0, zero running mean and unit running variance.
    pub fn new(name: &str, c: usize, group: usize) -> Self {
        assert!(c > 0, "channel count must be positive");
        BatchNorm2d {
            gamma: Param::new(format!("{name}.gamma"), Tensor::ones(&[c])),
            beta: Param::new(format!("{name}.beta"), Tensor::zeros(&[c])),
            running_mean: Tensor::zeros(&[c]),
            running_var: Tensor::ones(&[c]),
            momentum: 0.1,
            c,
            group,
            cache: None,
        }
    }

    fn stats_for_batch(&self, x: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let (b, c, h, w) = dims4(x);
        let n = (b * h * w) as f32;
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        let hw = h * w;
        #[allow(clippy::needless_range_loop)] // index addresses per-channel planes
        for s in 0..b {
            for ch in 0..c {
                let plane = &x.data()[(s * c + ch) * hw..(s * c + ch + 1) * hw];
                mean[ch] += plane.iter().sum::<f32>();
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        #[allow(clippy::needless_range_loop)] // index addresses per-channel planes
        for s in 0..b {
            for ch in 0..c {
                let plane = &x.data()[(s * c + ch) * hw..(s * c + ch + 1) * hw];
                let mu = mean[ch];
                var[ch] += plane.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>();
            }
        }
        for v in &mut var {
            *v /= n;
        }
        (mean, var)
    }

    /// dX of the cached forward. `sums` are [`Cache::channel_sums`] of the
    /// same `grad_out`; only a `Mode::Train` forward reads them.
    fn input_grad(&self, grad_out: &Tensor, sums: Option<&ChannelSums>) -> Tensor {
        let cache = self.cache.as_ref().expect("backward called before forward");
        let (b, c, h, w) = dims4(grad_out);
        assert_eq!(c, self.c, "bn grad channel mismatch");
        let hw = h * w;
        let gamma = self.gamma.value().data();
        let mut dx = Tensor::zeros(grad_out.shape());
        match cache.mode {
            Mode::Train => {
                // dx = (γ·inv_std/N)·(N·dy − Σdy − x̂·Σ(dy·x̂))
                let (dgamma, dbeta) = sums.expect("train-mode dX needs the channel sums");
                let n = cache.n_per_c as f32;
                #[allow(clippy::needless_range_loop)] // index addresses per-channel planes
                for s in 0..b {
                    for ch in 0..c {
                        let off = (s * c + ch) * hw;
                        let k = gamma[ch] * cache.inv_std[ch] / n;
                        let dy = &grad_out.data()[off..off + hw];
                        let x_hat = &cache.x_hat.data()[off..off + hw];
                        let out = &mut dx.data_mut()[off..off + hw];
                        for ((o, &g), &xh) in out.iter_mut().zip(dy).zip(x_hat) {
                            *o = k * (n * g - dbeta[ch] - xh * dgamma[ch]);
                        }
                    }
                }
            }
            Mode::Eval => {
                // Statistics are constants: dx = dy·γ·inv_std.
                #[allow(clippy::needless_range_loop)] // index addresses per-channel planes
                for s in 0..b {
                    for ch in 0..c {
                        let off = (s * c + ch) * hw;
                        let k = gamma[ch] * cache.inv_std[ch];
                        let dy = &grad_out.data()[off..off + hw];
                        let out = &mut dx.data_mut()[off..off + hw];
                        for (o, &g) in out.iter_mut().zip(dy) {
                            *o = g * k;
                        }
                    }
                }
            }
        }
        dx
    }
}

fn dims4(x: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(x.shape().len(), 4, "batchnorm input must be [b,c,h,w]");
    (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3])
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let (b, c, h, w) = dims4(x);
        assert_eq!(c, self.c, "bn channel mismatch");
        let (mean, var) = match mode {
            Mode::Train => {
                let (m, v) = self.stats_for_batch(x);
                // Update running statistics.
                for ch in 0..c {
                    let rm = &mut self.running_mean.data_mut()[ch];
                    *rm = (1.0 - self.momentum) * *rm + self.momentum * m[ch];
                    let rv = &mut self.running_var.data_mut()[ch];
                    *rv = (1.0 - self.momentum) * *rv + self.momentum * v[ch];
                }
                (m, v)
            }
            Mode::Eval => (
                self.running_mean.data().to_vec(),
                self.running_var.data().to_vec(),
            ),
        };
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + EPS).sqrt()).collect();
        let hw = h * w;
        let mut x_hat = Tensor::zeros(x.shape());
        let mut out = Tensor::zeros(x.shape());
        for s in 0..b {
            for ch in 0..c {
                let off = (s * c + ch) * hw;
                let g = self.gamma.value().data()[ch];
                let bt = self.beta.value().data()[ch];
                for i in 0..hw {
                    let xh = (x.data()[off + i] - mean[ch]) * inv_std[ch];
                    x_hat.data_mut()[off + i] = xh;
                    out.data_mut()[off + i] = g * xh + bt;
                }
            }
        }
        self.cache = Some(Cache {
            x_hat,
            inv_std,
            mode,
            n_per_c: b * hw,
        });
        out
    }

    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("backward called before forward");
        // Eval statistics are constants, so that dX needs no reduction.
        let sums = (cache.mode == Mode::Train).then(|| cache.channel_sums(grad_out));
        self.input_grad(grad_out, sums.as_ref())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("backward called before forward");
        let sums = cache.channel_sums(grad_out);
        let (dgamma, dbeta) = &sums;
        for ch in 0..self.c {
            self.gamma.grad_mut().data_mut()[ch] += dgamma[ch];
            self.beta.grad_mut().data_mut()[ch] += dbeta[ch];
        }
        self.input_grad(grad_out, Some(&sums))
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::same_group(LayerKind::BatchNorm2d { c: self.c }, self.group)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn bn_stats(&self) -> Option<(&Tensor, &Tensor)> {
        Some((&self.running_mean, &self.running_var))
    }

    fn set_bn_stats(&mut self, mean: &Tensor, var: &Tensor) {
        assert_eq!(mean.shape(), [self.c], "bn stats mean shape");
        assert_eq!(var.shape(), [self.c], "bn stats var shape");
        self.running_mean = mean.clone();
        self.running_var = var.clone();
    }

    fn clear_cache(&mut self) {
        self.cache = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{
        check_layer_gradients, check_layer_gradients_mode, check_layer_input_gradients,
    };

    #[test]
    fn train_mode_normalizes_batch() {
        let mut bn = BatchNorm2d::new("bn", 2, 0);
        let mut rng = fp_tensor::seeded_rng(0);
        let x = Tensor::rand_uniform(&[4, 2, 3, 3], -2.0, 5.0, &mut rng);
        let y = bn.forward(&x, Mode::Train);
        // Per-channel mean ≈ 0, var ≈ 1 after normalization.
        for ch in 0..2 {
            let mut vals = Vec::new();
            for s in 0..4 {
                let off = (s * 2 + ch) * 9;
                vals.extend_from_slice(&y.data()[off..off + 9]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn running_stats_track_batch_stats() {
        let mut bn = BatchNorm2d::new("bn", 1, 0);
        let x = Tensor::full(&[2, 1, 2, 2], 3.0);
        for _ in 0..100 {
            bn.forward(&x, Mode::Train);
        }
        let (mean, var) = bn.bn_stats().unwrap();
        assert!((mean.data()[0] - 3.0).abs() < 1e-2);
        assert!(var.data()[0] < 1e-2); // constant input → zero variance
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new("bn", 1, 0);
        bn.set_bn_stats(
            &Tensor::from_vec(vec![1.0], &[1]),
            &Tensor::from_vec(vec![4.0], &[1]),
        );
        let x = Tensor::full(&[1, 1, 1, 1], 5.0);
        let y = bn.forward(&x, Mode::Eval);
        // (5-1)/sqrt(4+eps) ≈ 2.
        assert!((y.data()[0] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn gradients_match_finite_differences_train() {
        let mut rng = fp_tensor::seeded_rng(8);
        let mut bn = BatchNorm2d::new("bn", 3, 0);
        check_layer_gradients(&mut bn, &[4, 3, 2, 2], &mut rng);
    }

    #[test]
    fn gradients_match_finite_differences_eval() {
        let mut rng = fp_tensor::seeded_rng(9);
        let mut bn = BatchNorm2d::new("bn", 2, 0);
        // Non-trivial running stats.
        bn.set_bn_stats(
            &Tensor::from_vec(vec![0.3, -0.2], &[2]),
            &Tensor::from_vec(vec![1.5, 0.7], &[2]),
        );
        check_layer_gradients_mode(&mut bn, &[2, 2, 3, 3], Mode::Eval, &mut rng);
    }

    #[test]
    fn input_gradient_only_route_matches_finite_differences() {
        let mut rng = fp_tensor::seeded_rng(10);
        let mut bn = BatchNorm2d::new("bn", 3, 0);
        bn.params_mut()[0].set_value(Tensor::from_vec(vec![0.5, 1.5, -1.0], &[3]));
        bn.set_bn_stats(
            &Tensor::from_vec(vec![0.3, -0.2, 0.1], &[3]),
            &Tensor::from_vec(vec![1.5, 0.7, 1.1], &[3]),
        );
        check_layer_input_gradients(&mut bn, &[4, 3, 2, 2], &mut rng);
    }

    #[test]
    fn set_bn_stats_roundtrip() {
        let mut bn = BatchNorm2d::new("bn", 2, 0);
        let m = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let v = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        bn.set_bn_stats(&m, &v);
        let (gm, gv) = bn.bn_stats().unwrap();
        assert_eq!(gm, &m);
        assert_eq!(gv, &v);
    }
}
