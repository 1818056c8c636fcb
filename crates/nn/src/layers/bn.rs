//! Batch normalization over channels.

use super::{planes, recycle};
use crate::layer::{Layer, Mode, DX_ONLY_ROUTE};
use crate::param::Param;
use crate::spec::{LayerKind, LayerSpec};
use fp_tensor::Tensor;

const EPS: f32 = 1e-5;

/// Batch normalization for `[batch, c, h, w]` inputs.
///
/// In `Train` mode it normalizes with live batch statistics and updates
/// exponential running statistics (momentum 0.1); in `Eval` mode it uses
/// the running statistics. Running statistics are exposed through
/// [`Layer::running_stats`] because the FedRBN baseline propagates adversarial
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
    /// `None` after [`Layer::forward_dx_only`]: only dγ / dβ and a
    /// `Train` dX read it.
    x_hat: Option<Vec<f32>>,
    inv_std: Vec<f32>,
    mode: Mode,
    /// Elements per channel in the normalized batch (`b·h·w`).
    n_per_c: usize,
}

/// Per-channel `(Σ dy·x̂, Σ dy)` over the batch.
type ChannelSums = (Vec<f32>, Vec<f32>);

/// Independent f32 chains the reductions run abreast. Each chain is still
/// one sequential fold in the parent's order; the lanes only let the core
/// overlap eight of them instead of waiting on one add at a time.
const LANES: usize = 8;

impl Cache {
    /// The two reductions of a backward pass: they are dγ and dβ, and
    /// train-mode dX needs them too, so `backward` and `backward_input`
    /// share this one summation order — per channel one chain from `+0.0`
    /// over `s`, then `i` — computed [`LANES`] channels abreast.
    fn channel_sums(&self, grad_out: &Tensor) -> ChannelSums {
        let (_, c, h, w) = dims4(grad_out);
        let x_hat = self.x_hat.as_deref().expect(DX_ONLY_ROUTE);
        let dy = grad_out.data();
        assert_eq!(dy.len(), x_hat.len(), "bn grad shape mismatch");
        let mut sums: ChannelSums = (Vec::with_capacity(c), Vec::with_capacity(c));
        let full = c - c % LANES;
        for c0 in (0..full).step_by(LANES) {
            channel_chains::<LANES>(dy, x_hat, c, h * w, c0, &mut sums);
        }
        for c0 in full..c {
            channel_chains::<1>(dy, x_hat, c, h * w, c0, &mut sums);
        }
        sums
    }
}

/// Appends channels `c0..c0 + L` of [`Cache::channel_sums`], one lane each.
fn channel_chains<const L: usize>(
    dy: &[f32],
    x_hat: &[f32],
    c: usize,
    hw: usize,
    c0: usize,
    (dgammas, dbetas): &mut ChannelSums,
) {
    let (mut dgamma, mut dbeta) = ([0.0f32; L], [0.0f32; L]);
    let sample = (c * hw).max(1);
    for (dy_s, xh_s) in dy.chunks_exact(sample).zip(x_hat.chunks_exact(sample)) {
        let dys: [&[f32]; L] = std::array::from_fn(|l| &dy_s[(c0 + l) * hw..][..hw]);
        let xhs: [&[f32]; L] = std::array::from_fn(|l| &xh_s[(c0 + l) * hw..][..hw]);
        for i in 0..hw {
            for l in 0..L {
                dgamma[l] += dys[l][i] * xhs[l][i];
                dbeta[l] += dys[l][i];
            }
        }
    }
    dgammas.extend_from_slice(&dgamma);
    dbetas.extend_from_slice(&dbeta);
}

/// `Σ term(v, mu_of(p))` over each `hw`-element plane `p` of `x`: one
/// sequential chain per plane from `-0.0`, i.e. exactly
/// `plane.iter().map(..).sum::<f32>()`, computed [`LANES`] planes abreast.
fn plane_sums(
    x: &[f32],
    hw: usize,
    mu_of: impl Fn(usize) -> f32,
    term: impl Fn(f32, f32) -> f32,
) -> Vec<f32> {
    let mut sums = Vec::with_capacity(x.len() / hw.max(1));
    let mut groups = x.chunks_exact(LANES * hw.max(1));
    for group in groups.by_ref() {
        let lane: [&[f32]; LANES] = std::array::from_fn(|l| &group[l * hw..][..hw]);
        let mu: [f32; LANES] = std::array::from_fn(|l| mu_of(sums.len() + l));
        let mut acc = [-0.0f32; LANES];
        #[allow(clippy::needless_range_loop)] // one offset into eight planes
        for i in 0..hw {
            for l in 0..LANES {
                acc[l] += term(lane[l][i], mu[l]);
            }
        }
        sums.extend_from_slice(&acc);
    }
    for plane in planes(groups.remainder(), hw) {
        let mu = mu_of(sums.len());
        sums.push(plane.iter().map(|&v| term(v, mu)).sum());
    }
    sums
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

    /// Batch mean and biased variance per channel: each `(s, ch)` plane's
    /// sum is one [`plane_sums`] chain, and the plane sums fold into their
    /// channel from `+0.0` in `(s, ch)` order before the division by `N`.
    fn stats_for_batch(&self, x: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let (b, c, h, w) = dims4(x);
        let n = (b * h * w) as f32;
        let per_channel = |sums: Vec<f32>| -> Vec<f32> {
            let mut acc = vec![0.0f32; c];
            for (&s, ch) in sums.iter().zip((0..c).cycle()) {
                acc[ch] += s;
            }
            acc.iter().map(|&a| a / n).collect()
        };
        let mean = per_channel(plane_sums(x.data(), h * w, |_| 0.0, |v, _| v));
        let centered = plane_sums(
            x.data(),
            h * w,
            |p| mean[p % c],
            |v, mu| (v - mu) * (v - mu),
        );
        (mean, per_channel(centered))
    }

    /// dX of the cached forward. `sums` are [`Cache::channel_sums`] of the
    /// same `grad_out`; only a `Mode::Train` forward reads them. One
    /// plane-sliced pass with the per-plane constants hoisted; every
    /// element is the parent's expression, rounding for rounding.
    fn input_grad(&self, grad_out: &Tensor, sums: Option<&ChannelSums>) -> Tensor {
        let cache = self.cache.as_ref().expect("backward called before forward");
        let (_, c, h, w) = dims4(grad_out);
        assert_eq!(c, self.c, "bn grad channel mismatch");
        let gamma = self.gamma.value().data();
        let dy_planes = planes(grad_out.data(), h * w).zip((0..c).cycle());
        let mut dx = Vec::with_capacity(grad_out.numel());
        match cache.mode {
            Mode::Train => {
                // dx = (γ·inv_std/N)·(N·dy − Σdy − x̂·Σ(dy·x̂))
                // `channel_sums` checked that `grad_out` matches `x̂`.
                let (dgamma, dbeta) = sums.expect("train-mode dX needs the channel sums");
                let n = cache.n_per_c as f32;
                let x_hat = cache.x_hat.as_deref().expect(DX_ONLY_ROUTE);
                for ((dy, ch), x_hat) in dy_planes.zip(planes(x_hat, h * w)) {
                    let k = gamma[ch] * cache.inv_std[ch] / n;
                    let (db, dg) = (dbeta[ch], dgamma[ch]);
                    dx.extend(
                        dy.iter()
                            .zip(x_hat)
                            .map(|(&g, &xh)| k * (n * g - db - xh * dg)),
                    );
                }
            }
            Mode::Eval => {
                // Statistics are constants: dx = dy·γ·inv_std.
                for (dy, ch) in dy_planes {
                    let k = gamma[ch] * cache.inv_std[ch];
                    dx.extend(dy.iter().map(|&g| g * k));
                }
            }
        }
        Tensor::from_vec(dx, grad_out.shape())
    }
}

/// `1 / √(var + ε)` per channel.
pub(crate) fn inv_std(var: &[f32]) -> Vec<f32> {
    var.iter().map(|&v| 1.0 / (v + EPS).sqrt()).collect()
}

fn dims4(x: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(x.shape().len(), 4, "batchnorm input must be [b,c,h,w]");
    (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3])
}

impl BatchNorm2d {
    /// Normalizes plane by plane: `x̂ = (x − μ)·inv_std` into the recycled
    /// `x̂` buffer, then `γ·x̂ + β` from it — two roundings each, as in
    /// the parent (never a fused multiply-add), written by `extend`
    /// instead of over a zero fill. Without `keep_x_hat` the same two
    /// roundings run per element with no `x̂` buffer.
    fn run(&mut self, x: &Tensor, mode: Mode, keep_x_hat: bool) -> Tensor {
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
        let inv_std = inv_std(&var);
        let (gamma, beta) = (self.gamma.value().data(), self.beta.value().data());
        let old = self.cache.take().and_then(|c| c.x_hat);
        let mut x_hat = keep_x_hat.then(|| recycle(old, x.numel()));
        let mut out = Vec::with_capacity(x.numel());
        for (plane, ch) in planes(x.data(), h * w).zip((0..c).cycle()) {
            let (mu, k, g, bt) = (mean[ch], inv_std[ch], gamma[ch], beta[ch]);
            match &mut x_hat {
                Some(x_hat) => {
                    let start = x_hat.len();
                    x_hat.extend(plane.iter().map(|&v| (v - mu) * k));
                    out.extend(x_hat[start..].iter().map(|&xh| g * xh + bt));
                }
                None => out.extend(plane.iter().map(|&v| g * ((v - mu) * k) + bt)),
            }
        }
        self.cache = Some(Cache {
            x_hat,
            inv_std,
            mode,
            n_per_c: b * h * w,
        });
        Tensor::from_vec(out, x.shape())
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.run(x, mode, true)
    }

    /// The `Eval` forward without `x̂`: its dX reads only γ·inv_std.
    fn forward_dx_only(&mut self, x: &Tensor) -> Tensor {
        self.run(x, Mode::Eval, false)
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

    fn running_stats(&self) -> Vec<(&Tensor, &Tensor)> {
        vec![(&self.running_mean, &self.running_var)]
    }

    fn running_stats_mut(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        vec![(&mut self.running_mean, &mut self.running_var)]
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

    /// Overwrites `bn`'s running statistics.
    fn set_stats(bn: &mut BatchNorm2d, mean: Vec<f32>, var: Vec<f32>) {
        let c = mean.len();
        let (m, v) = bn.running_stats_mut().remove(0);
        (*m, *v) = (Tensor::from_vec(mean, &[c]), Tensor::from_vec(var, &[c]));
    }

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
        let (mean, var) = bn.running_stats()[0];
        assert!((mean.data()[0] - 3.0).abs() < 1e-2);
        assert!(var.data()[0] < 1e-2); // constant input → zero variance
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new("bn", 1, 0);
        set_stats(&mut bn, vec![1.0], vec![4.0]);
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
        set_stats(&mut bn, vec![0.3, -0.2], vec![1.5, 0.7]);
        check_layer_gradients_mode(&mut bn, &[2, 2, 3, 3], Mode::Eval, &mut rng);
    }

    #[test]
    fn input_gradient_only_route_matches_finite_differences() {
        let mut rng = fp_tensor::seeded_rng(10);
        let mut bn = BatchNorm2d::new("bn", 3, 0);
        bn.params_mut()[0].set_value(Tensor::from_vec(vec![0.5, 1.5, -1.0], &[3]));
        set_stats(&mut bn, vec![0.3, -0.2, 0.1], vec![1.5, 0.7, 1.1]);
        check_layer_input_gradients(&mut bn, &[4, 3, 2, 2], &mut rng);
    }

    #[test]
    fn set_bn_stats_roundtrip() {
        let mut bn = BatchNorm2d::new("bn", 2, 0);
        set_stats(&mut bn, vec![1.0, 2.0], vec![3.0, 4.0]);
        let (gm, gv) = bn.running_stats()[0];
        assert_eq!(gm.data(), [1.0, 2.0]);
        assert_eq!(gv.data(), [3.0, 4.0]);
    }
}
