//! Bitwise oracle for the non-GEMM layer loops (`BatchNorm2d`, `ReLU`,
//! `MaxPool2d`) and the recycled cache buffers.
//!
//! `RefBn`, `ref_relu` and `ref_pool` below are the parent's bodies of
//! those layers, kept verbatim apart from plain `Vec` parameters: every output of the
//! rewritten loops — forward, running statistics, `backward_input`,
//! `backward`, γ/β gradients — must equal theirs bit for bit over random
//! shapes and special values. NaN outputs compare as NaN, not by payload
//! (which operand's payload an `a + b` propagates is the code generator's
//! choice; the same caveat as `fp_fl::aggregate`'s `plane_kernel` tests).

// The references index per-channel planes exactly as the parent did.
#![allow(clippy::needless_range_loop)]

use crate::layer::{Layer, Mode};
use crate::{BatchNorm2d, Conv2d, Linear, MaxPool2d, ReLU};
use fp_tensor::{seeded_rng, Tensor};
use rand::Rng;

const EPS: f32 = 1e-5;

/// The parent's `BatchNorm2d` (Tensor-backed `x̂`, zero-filled outputs,
/// one sequential chain per reduction).
struct RefBn {
    gamma: Vec<f32>,
    beta: Vec<f32>,
    gamma_grad: Vec<f32>,
    beta_grad: Vec<f32>,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    c: usize,
    cache: Option<(Tensor, Vec<f32>, Mode, usize)>,
}

fn dims4(x: &Tensor) -> (usize, usize, usize, usize) {
    (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3])
}

impl RefBn {
    fn channel_sums(&self, grad_out: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let x_hat = &self.cache.as_ref().unwrap().0;
        let (b, c, h, w) = dims4(grad_out);
        let hw = h * w;
        let mut dgamma = vec![0.0f32; c];
        let mut dbeta = vec![0.0f32; c];
        for s in 0..b {
            for ch in 0..c {
                let off = (s * c + ch) * hw;
                let dy = &grad_out.data()[off..off + hw];
                let x_hat = &x_hat.data()[off..off + hw];
                for (&g, &xh) in dy.iter().zip(x_hat) {
                    dgamma[ch] += g * xh;
                    dbeta[ch] += g;
                }
            }
        }
        (dgamma, dbeta)
    }

    fn stats_for_batch(&self, x: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let (b, c, h, w) = dims4(x);
        let n = (b * h * w) as f32;
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        let hw = h * w;
        for s in 0..b {
            for ch in 0..c {
                let plane = &x.data()[(s * c + ch) * hw..(s * c + ch + 1) * hw];
                mean[ch] += plane.iter().sum::<f32>();
            }
        }
        for m in &mut mean {
            *m /= n;
        }
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

    fn input_grad(&self, grad_out: &Tensor, sums: Option<&(Vec<f32>, Vec<f32>)>) -> Tensor {
        let (x_hat, inv_std, mode, n_per_c) = self.cache.as_ref().unwrap();
        let (b, c, h, w) = dims4(grad_out);
        let hw = h * w;
        let gamma = &self.gamma;
        let mut dx = Tensor::zeros(grad_out.shape());
        match mode {
            Mode::Train => {
                let (dgamma, dbeta) = sums.unwrap();
                let n = *n_per_c as f32;
                for s in 0..b {
                    for ch in 0..c {
                        let off = (s * c + ch) * hw;
                        let k = gamma[ch] * inv_std[ch] / n;
                        let dy = &grad_out.data()[off..off + hw];
                        let x_hat = &x_hat.data()[off..off + hw];
                        let out = &mut dx.data_mut()[off..off + hw];
                        for ((o, &g), &xh) in out.iter_mut().zip(dy).zip(x_hat) {
                            *o = k * (n * g - dbeta[ch] - xh * dgamma[ch]);
                        }
                    }
                }
            }
            Mode::Eval => {
                for s in 0..b {
                    for ch in 0..c {
                        let off = (s * c + ch) * hw;
                        let k = gamma[ch] * inv_std[ch];
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

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let (b, c, h, w) = dims4(x);
        let (mean, var) = match mode {
            Mode::Train => {
                let (m, v) = self.stats_for_batch(x);
                for ch in 0..c {
                    let rm = &mut self.running_mean[ch];
                    *rm = (1.0 - self.momentum) * *rm + self.momentum * m[ch];
                    let rv = &mut self.running_var[ch];
                    *rv = (1.0 - self.momentum) * *rv + self.momentum * v[ch];
                }
                (m, v)
            }
            Mode::Eval => (self.running_mean.clone(), self.running_var.clone()),
        };
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + EPS).sqrt()).collect();
        let hw = h * w;
        let mut x_hat = Tensor::zeros(x.shape());
        let mut out = Tensor::zeros(x.shape());
        for s in 0..b {
            for ch in 0..c {
                let off = (s * c + ch) * hw;
                let g = self.gamma[ch];
                let bt = self.beta[ch];
                for i in 0..hw {
                    let xh = (x.data()[off + i] - mean[ch]) * inv_std[ch];
                    x_hat.data_mut()[off + i] = xh;
                    out.data_mut()[off + i] = g * xh + bt;
                }
            }
        }
        self.cache = Some((x_hat, inv_std, mode, b * hw));
        out
    }

    fn backward_input(&self, grad_out: &Tensor) -> Tensor {
        let sums =
            (self.cache.as_ref().unwrap().2 == Mode::Train).then(|| self.channel_sums(grad_out));
        self.input_grad(grad_out, sums.as_ref())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let sums = self.channel_sums(grad_out);
        for ch in 0..self.c {
            self.gamma_grad[ch] += sums.0[ch];
            self.beta_grad[ch] += sums.1[ch];
        }
        self.input_grad(grad_out, Some(&sums))
    }
}

/// The parent's `ReLU::forward` / `backward_input`.
fn ref_relu(x: &Tensor, grad_out: &Tensor) -> (Tensor, Tensor) {
    let mask: Vec<bool> = x.data().iter().map(|&v| v > 0.0).collect();
    let y = x.map(|v| v.max(0.0));
    let data = grad_out
        .data()
        .iter()
        .zip(mask.iter())
        .map(|(&g, &m)| if m { g } else { 0.0 })
        .collect();
    (y, Tensor::from_vec(data, grad_out.shape()))
}

/// The parent's `MaxPool2d::forward` (`usize` argmax, per-element
/// indexing), then its backward scatter of `grad_out` (`None`: all ones).
fn ref_pool(x: &Tensor, k: usize, stride: usize, grad_out: Option<&Tensor>) -> (Tensor, Tensor) {
    let (b, c, h, w) = dims4(x);
    let h_out = (h - k) / stride + 1;
    let w_out = (w - k) / stride + 1;
    let mut out = Tensor::zeros(&[b, c, h_out, w_out]);
    let mut argmax = vec![0usize; b * c * h_out * w_out];
    for s in 0..b {
        for ch in 0..c {
            let in_off = (s * c + ch) * h * w;
            let out_off = (s * c + ch) * h_out * w_out;
            for oy in 0..h_out {
                for ox in 0..w_out {
                    let mut best_idx = in_off + oy * stride * w + ox * stride;
                    let mut best = x.data()[best_idx];
                    for ky in 0..k {
                        for kx in 0..k {
                            let idx = in_off + (oy * stride + ky) * w + ox * stride + kx;
                            if x.data()[idx] > best {
                                best = x.data()[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    out.data_mut()[out_off + oy * w_out + ox] = best;
                    argmax[out_off + oy * w_out + ox] = best_idx;
                }
            }
        }
    }
    let ones = Tensor::ones(out.shape());
    let grad_out = grad_out.unwrap_or(&ones);
    let mut dx = Tensor::zeros(x.shape());
    for (i, &src) in argmax.iter().enumerate() {
        dx.data_mut()[src] += grad_out.data()[i];
    }
    (out, dx)
}

fn assert_same(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, r)) in got.iter().zip(want).enumerate() {
        let same = if r.is_nan() {
            g.is_nan()
        } else {
            g.to_bits() == r.to_bits()
        };
        assert!(same, "{what}[{i}]: {g:?} vs reference {r:?}");
    }
}

/// Values of one flavour: plain uniform, a few tied levels (±0
/// included), constant planes (variance 0), or sprinkled with ±0, ±inf
/// and NaN.
fn values<R: Rng>(rng: &mut R, shape: &[usize], flavour: usize) -> Tensor {
    let n: usize = shape.iter().product();
    let hw = shape[2..].iter().product::<usize>().max(1);
    let levels = [-1.0f32, -0.5, -0.0, 0.0, 0.5, 1.0];
    let specials = [0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    let mut plane_value = 0.0;
    let data = (0..n)
        .map(|i| match flavour {
            0 => rng.gen_range(-3.0f32..3.0),
            1 => levels[rng.gen_range(0..levels.len())],
            2 => {
                if i % hw == 0 {
                    plane_value = levels[rng.gen_range(0..levels.len())] * 1.7;
                }
                plane_value
            }
            _ if rng.gen_bool(0.15) => specials[rng.gen_range(0..specials.len())],
            _ => rng.gen_range(-3.0f32..3.0),
        })
        .collect();
    Tensor::from_vec(data, shape)
}

const FLAVOURS: usize = 4;

/// A random `[b, c, h, w]` with b 1..5, c 1..20 (crosses the 8-lane
/// tail), h / w 1..9.
fn shape<R: Rng>(rng: &mut R, min_hw: usize) -> [usize; 4] {
    [
        rng.gen_range(1..6),
        rng.gen_range(1..21),
        rng.gen_range(min_hw..10),
        rng.gen_range(min_hw..10),
    ]
}

/// A `BatchNorm2d` and its reference with the same random γ, β (some
/// `-0.0`) and running statistics (variance 0 included).
fn bn_pair<R: Rng>(rng: &mut R, c: usize) -> (BatchNorm2d, RefBn) {
    let pick = |rng: &mut R, lo: f32, hi: f32| -> Vec<f32> {
        (0..c)
            .map(|_| match rng.gen_range(0..6) {
                0 => -0.0,
                1 => 0.0,
                _ => rng.gen_range(lo..hi),
            })
            .collect()
    };
    let (gamma, beta) = (pick(rng, -2.0, 2.0), pick(rng, -1.0, 1.0));
    let (mean, var) = (pick(rng, -1.0, 1.0), pick(rng, 0.0, 2.0));
    let mut bn = BatchNorm2d::new("bn", c, 0);
    bn.params_mut()[0].set_value(Tensor::from_vec(gamma.clone(), &[c]));
    bn.params_mut()[1].set_value(Tensor::from_vec(beta.clone(), &[c]));
    bn.set_bn_stats(
        &Tensor::from_vec(mean.clone(), &[c]),
        &Tensor::from_vec(var.clone(), &[c]),
    );
    let reference = RefBn {
        gamma,
        beta,
        gamma_grad: vec![0.0; c],
        beta_grad: vec![0.0; c],
        running_mean: mean,
        running_var: var,
        momentum: 0.1,
        c,
        cache: None,
    };
    (bn, reference)
}

/// Forward + both backward routes of `bn` against `reference` on `x`.
fn check_bn<R: Rng>(
    rng: &mut R,
    bn: &mut BatchNorm2d,
    reference: &mut RefBn,
    x: &Tensor,
    mode: Mode,
    tag: &str,
) {
    assert_same(
        bn.forward(x, mode).data(),
        reference.forward(x, mode).data(),
        &format!("{tag} forward"),
    );
    let (mean, var) = bn.bn_stats().unwrap();
    assert_same(
        mean.data(),
        &reference.running_mean,
        &format!("{tag} running mean"),
    );
    assert_same(
        var.data(),
        &reference.running_var,
        &format!("{tag} running var"),
    );
    let flavour = rng.gen_range(0..FLAVOURS);
    let g = values(rng, x.shape(), flavour);
    let mut input_only = bn.clone();
    assert_same(
        input_only.backward_input(&g).data(),
        reference.backward_input(&g).data(),
        &format!("{tag} backward_input"),
    );
    assert_same(
        bn.backward(&g).data(),
        reference.backward(&g).data(),
        &format!("{tag} backward"),
    );
    assert_same(
        bn.params()[0].grad().data(),
        &reference.gamma_grad,
        &format!("{tag} dγ"),
    );
    assert_same(
        bn.params()[1].grad().data(),
        &reference.beta_grad,
        &format!("{tag} dβ"),
    );
}

#[test]
fn layer_kernel_bn_matches_reference_bitwise() {
    let mut rng = seeded_rng(25);
    for case in 0..400 {
        let [b, c, h, w] = shape(&mut rng, 1);
        let (mut bn, mut reference) = bn_pair(&mut rng, c);
        let x = values(&mut rng, &[b, c, h, w], case % FLAVOURS);
        for mode in [Mode::Train, Mode::Eval] {
            let tag = format!(
                "case {case} {mode:?} [{b},{c},{h},{w}] flavour {}",
                case % FLAVOURS
            );
            check_bn(&mut rng, &mut bn, &mut reference, &x, mode, &tag);
        }
    }
}

#[test]
fn layer_kernel_relu_matches_reference_bitwise() {
    let mut rng = seeded_rng(26);
    let mut relu = ReLU::new(0);
    for case in 0..200 {
        let s = shape(&mut rng, 1);
        let x = values(&mut rng, &s, case % FLAVOURS);
        let flavour = rng.gen_range(0..FLAVOURS);
        let g = values(&mut rng, &s, flavour);
        let (y, dx) = ref_relu(&x, &g);
        assert_same(
            relu.forward(&x, Mode::Eval).data(),
            y.data(),
            &format!("case {case} forward"),
        );
        assert_same(
            relu.backward_input(&g).data(),
            dx.data(),
            &format!("case {case} backward"),
        );
    }
}

#[test]
fn layer_kernel_pool_matches_reference_bitwise() {
    let mut rng = seeded_rng(27);
    for case in 0..400 {
        let (k, stride) = (rng.gen_range(2..4), rng.gen_range(1..4));
        let s = shape(&mut rng, k);
        let x = values(&mut rng, &s, case % FLAVOURS);
        let mut pool = MaxPool2d::new(k, stride, 0);
        let y = pool.forward(&x, Mode::Eval);
        let flavour = rng.gen_range(0..FLAVOURS);
        let g = values(&mut rng, y.shape(), flavour);
        let (want_y, want_dx) = ref_pool(&x, k, stride, Some(&g));
        let tag = format!("case {case} k {k} stride {stride} {s:?}");
        assert_same(y.data(), want_y.data(), &format!("{tag} forward"));
        assert_same(
            pool.backward_input(&g).data(),
            want_dx.data(),
            &format!("{tag} backward"),
        );
        // All-ones gradients make every dx entry the winner count of
        // that input, so a tie broken the other way cannot hide.
        let (_, counts) = ref_pool(&x, k, stride, None);
        let ones = Tensor::ones(y.shape());
        assert_same(
            pool.backward(&ones).data(),
            counts.data(),
            &format!("{tag} winners"),
        );
    }
}

#[test]
fn layer_kernel_buffers_are_reused_across_batch_sizes() {
    let mut rng = seeded_rng(28);
    let (mut bn, mut reference) = bn_pair(&mut rng, 11);
    let mut relu = ReLU::new(0);
    let mut pools = [(2, 2), (3, 1)].map(|(k, stride)| (k, stride, MaxPool2d::new(k, stride, 0)));
    let mut conv = Conv2d::new("c", 11, 5, 3, 1, 1, true, 0, 1, &mut rng);
    let mut linear = Linear::new("fc", 11 * 36, 4, 36, 0, 1, &mut rng);
    for (step, &b) in [3usize, 3, 1, 4, 4, 2, 3].iter().enumerate() {
        let x = values(&mut rng, &[b, 11, 6, 6], step % FLAVOURS);
        let mode = if step % 2 == 0 {
            Mode::Train
        } else {
            Mode::Eval
        };
        check_bn(
            &mut rng,
            &mut bn,
            &mut reference,
            &x,
            mode,
            &format!("bn step {step}"),
        );

        let g = values(&mut rng, x.shape(), 0);
        let (y, dx) = ref_relu(&x, &g);
        assert_same(
            relu.forward(&x, mode).data(),
            y.data(),
            &format!("relu step {step}"),
        );
        assert_same(
            relu.backward_input(&g).data(),
            dx.data(),
            &format!("relu dx step {step}"),
        );

        for (k, stride, pool) in &mut pools {
            let (k, stride) = (*k, *stride);
            let y = pool.forward(&x, mode);
            let g = values(&mut rng, y.shape(), 0);
            let (want_y, want_dx) = ref_pool(&x, k, stride, Some(&g));
            assert_same(
                y.data(),
                want_y.data(),
                &format!("pool {k}/{stride} step {step}"),
            );
            assert_same(
                pool.backward_input(&g).data(),
                want_dx.data(),
                &format!("pool dx step {step}"),
            );
        }

        // A layer that recycled its cached input must backprop exactly
        // like a fresh copy that never cached anything before.
        let clean = values(&mut rng, x.shape(), 0);
        let flat = clean.reshaped(&[b, 11 * 36]);
        for (layer, input) in [(&mut conv as &mut dyn Layer, &clean), (&mut linear, &flat)] {
            let mut fresh = layer.clone_box();
            fresh.clear_cache();
            let y = layer.forward(input, mode);
            assert_same(
                y.data(),
                fresh.forward(input, mode).data(),
                &format!("step {step} forward"),
            );
            let g = values(&mut rng, y.shape(), 0);
            assert_same(
                layer.backward(&g).data(),
                fresh.backward(&g).data(),
                &format!("step {step} dx"),
            );
            for (p, q) in layer.params().iter().zip(fresh.params()) {
                assert_same(
                    p.grad().data(),
                    q.grad().data(),
                    &format!("step {step} {}", p.name()),
                );
            }
        }
    }
}

#[test]
fn layer_kernel_cleared_cache_refuses_backward() {
    let mut rng = seeded_rng(29);
    let x = Tensor::rand_uniform(&[2, 3, 4, 4], -1.0, 1.0, &mut rng);
    let layers: Vec<(Box<dyn Layer>, Tensor)> = vec![
        (Box::new(BatchNorm2d::new("bn", 3, 0)), x.clone()),
        (Box::new(ReLU::new(0)), x.clone()),
        (Box::new(MaxPool2d::new(2, 2, 0)), x.clone()),
        (
            Box::new(Conv2d::new("c", 3, 2, 3, 1, 1, true, 0, 1, &mut rng)),
            x.clone(),
        ),
        (
            Box::new(Linear::new("fc", 48, 2, 16, 0, 1, &mut rng)),
            x.reshaped(&[2, 48]),
        ),
    ];
    for (mut layer, input) in layers {
        for mode in [Mode::Train, Mode::Eval] {
            let y = layer.forward(&input, mode);
            layer.clear_cache();
            for full in [false, true] {
                let mut probe = layer.clone_box();
                let g = Tensor::ones(y.shape());
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if full {
                        probe.backward(&g)
                    } else {
                        probe.backward_input(&g)
                    }
                }))
                .expect_err("backward after clear_cache must panic");
                let msg = err.downcast_ref::<&str>().map(|s| s.to_string());
                let msg = msg
                    .or_else(|| err.downcast_ref::<String>().cloned())
                    .unwrap();
                assert!(
                    msg.contains("backward called before forward"),
                    "{:?}: {msg}",
                    layer.spec()
                );
            }
        }
    }
}
