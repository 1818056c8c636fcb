//! Attack-pass equivalence: the input-gradient-only backward
//! (`Layer::backward_input` and everything routed through it) against the
//! full backward it replaced on attack passes.
//!
//! Three layers of evidence, all bitwise:
//!
//! * every layer kind returns the same dX from `backward_input` as from
//!   `backward` after the same forward, and `backward_input` leaves
//!   pre-seeded parameter gradients untouched;
//! * `ModelTarget` and `ModuleTarget` (head exit and
//!   `ModuleTarget::final_window`) drive `Pgd` and `Apgd` to the same adversarial examples as [`OldRoute`], a test-only
//!   target that takes the pre-change route (full backward, then
//!   `zero_grad`), at 1 and 2 backend threads;
//! * `train_module_window` and `local_train` end on the same parameters
//!   and BN statistics as transcriptions of their loops built on
//!   [`OldRoute`].
//!
//! This suite is the oracle for any edit to a `Layer::backward`: a layer
//! whose two entry points drift apart fails here first.

use fedprophet_repro::attack::{
    Apgd, ApgdConfig, AttackTarget, ModelTarget, NormBall, Pgd, PgdConfig,
};
use fedprophet_repro::data::{generate, BatchIter, Dataset, SynthConfig};
use fedprophet_repro::fedprophet::{train_module_window, AuxHead, ModuleTarget, WindowTrainConfig};
use fedprophet_repro::fl::{local_train, LocalTrainConfig};
use fedprophet_repro::nn::models;
use fedprophet_repro::nn::{
    BasicBlock, BatchNorm2d, CascadeModel, Conv2d, CrossEntropyLoss, Dropout, Flatten,
    GlobalAvgPool, Layer, Linear, MaxPool2d, Mode, Param, ReLU, Sequential, Sgd,
};
use fedprophet_repro::tensor::{backend_for_threads, seeded_rng, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn grad_bits<'a>(params: impl IntoIterator<Item = &'a Param>) -> Vec<Vec<u32>> {
    params.into_iter().map(|p| bits(p.grad())).collect()
}

/// Anything with the two backward entry points: a layer, an atom, a head.
trait Unit: Clone {
    fn fwd(&mut self, x: &Tensor, mode: Mode) -> Tensor;
    fn full(&mut self, g: &Tensor) -> Tensor;
    fn input_only(&mut self, g: &Tensor) -> Tensor;
    fn unit_params(&self) -> Vec<&Param>;
    fn unit_params_mut(&mut self) -> Vec<&mut Param>;
}

macro_rules! impl_unit {
    ($($t:ty),*) => {$(
        impl Unit for $t {
            fn fwd(&mut self, x: &Tensor, mode: Mode) -> Tensor {
                self.forward(x, mode)
            }
            fn full(&mut self, g: &Tensor) -> Tensor {
                self.backward(g)
            }
            fn input_only(&mut self, g: &Tensor) -> Tensor {
                self.backward_input(g)
            }
            fn unit_params(&self) -> Vec<&Param> {
                self.params()
            }
            fn unit_params_mut(&mut self) -> Vec<&mut Param> {
                self.params_mut()
            }
        }
    )*};
}
impl_unit!(Box<dyn Layer>, Sequential, AuxHead);

/// After one forward on `x`: `backward_input(g)` is bitwise the tensor
/// `backward(g)` returns, touches no (pre-seeded) parameter gradient, and
/// `backward` still accumulates into every one of them.
fn assert_routes_agree<U: Unit>(unit: &mut U, x: &Tensor, mode: Mode, rng: &mut StdRng) {
    for p in unit.unit_params_mut() {
        *p.grad_mut() = Tensor::rand_uniform(p.grad().shape(), -1.0, 1.0, rng);
    }
    let seeded = grad_bits(unit.unit_params());
    let y = unit.fwd(x, mode);
    let g = Tensor::rand_uniform(y.shape(), -1.0, 1.0, rng);
    // Same cache (and dropout mask) on both sides.
    let mut reference = unit.clone();
    let dx = unit.input_only(&g);
    assert_eq!(dx.shape(), x.shape());
    assert_eq!(
        grad_bits(unit.unit_params()),
        seeded,
        "backward_input touched a parameter gradient"
    );
    let dx_full = reference.full(&g);
    assert_eq!(bits(&dx), bits(&dx_full), "dX differs between the routes");
    for (after, before) in grad_bits(reference.unit_params()).iter().zip(&seeded) {
        assert_ne!(after, before, "backward accumulated nothing");
    }
}

fn boxed(layer: impl Layer + 'static) -> Box<dyn Layer> {
    Box::new(layer)
}

const MODES: [Mode; 2] = [Mode::Train, Mode::Eval];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conv_routes_agree(
        seed in 0u64..1000,
        c_in in 1usize..4,
        c_out in 1usize..5,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        hw in 4usize..9,
        bias in 0usize..2,
        batch in 1usize..4,
    ) {
        let mut rng = seeded_rng(seed);
        let mut conv = boxed(Conv2d::new("c", c_in, c_out, k, stride, pad, bias == 1, 0, 1, &mut rng));
        let x = Tensor::rand_uniform(&[batch, c_in, hw, hw + 1], -1.0, 1.0, &mut rng);
        for mode in MODES {
            assert_routes_agree(&mut conv, &x, mode, &mut rng);
        }
    }

    #[test]
    fn linear_and_batchnorm_routes_agree(
        seed in 0u64..1000,
        d_in in 1usize..9,
        d_out in 1usize..6,
        c in 1usize..5,
        hw in 1usize..5,
        batch in 2usize..5,
    ) {
        let mut rng = seeded_rng(seed);
        let mut linear = boxed(Linear::new("fc", d_in, d_out, 1, 0, 1, &mut rng));
        let x = Tensor::rand_uniform(&[batch, d_in], -1.0, 1.0, &mut rng);
        let mut bn = BatchNorm2d::new("bn", c, 0);
        bn.params_mut()[0].set_value(Tensor::rand_uniform(&[c], 0.5, 1.5, &mut rng));
        let (mean, var) = bn.running_stats_mut().remove(0);
        *mean = Tensor::rand_uniform(&[c], -0.5, 0.5, &mut rng);
        *var = Tensor::rand_uniform(&[c], 0.5, 2.0, &mut rng);
        let mut bn = boxed(bn);
        let z = Tensor::rand_uniform(&[batch, c, hw, hw], -2.0, 2.0, &mut rng);
        for mode in MODES {
            assert_routes_agree(&mut linear, &x, mode, &mut rng);
            assert_routes_agree(&mut bn, &z, mode, &mut rng);
        }
    }

    #[test]
    fn basic_block_routes_agree(
        seed in 0u64..1000,
        c_in in 1usize..4,
        widen in 0usize..2,
        stride in 1usize..3,
        batch in 1usize..3,
    ) {
        // widen = 0, stride = 1 keeps the identity shortcut; anything else
        // adds the projection.
        let mut rng = seeded_rng(seed);
        let mut block = boxed(BasicBlock::new("b", c_in, c_in + widen, stride, 1, 1, &mut rng));
        let x = Tensor::rand_uniform(&[batch, c_in, 4, 4], -1.0, 1.0, &mut rng);
        for mode in MODES {
            assert_routes_agree(&mut block, &x, mode, &mut rng);
        }
    }

    #[test]
    fn aux_head_routes_agree(seed in 0u64..1000, c in 1usize..9, classes in 2usize..6) {
        let mut rng = seeded_rng(seed);
        let mut pooled = AuxHead::new("aux", &[c, 3, 3], classes, &mut rng);
        let z = Tensor::rand_uniform(&[3, c, 3, 3], -1.0, 1.0, &mut rng);
        let mut flat = AuxHead::new("aux", &[c], classes, &mut rng);
        let v = Tensor::rand_uniform(&[3, c], -1.0, 1.0, &mut rng);
        for mode in MODES {
            assert_routes_agree(&mut pooled, &z, mode, &mut rng);
            assert_routes_agree(&mut flat, &v, mode, &mut rng);
        }
    }
}

/// Parameter-free layers inherit `backward` from the trait default; the two
/// entry points must still agree (dropout on its train-mode mask).
#[test]
fn parameter_free_routes_agree() {
    let mut rng = seeded_rng(3);
    let x = Tensor::rand_uniform(&[2, 3, 4, 4], -1.0, 1.0, &mut rng);
    let mut layers = [
        boxed(ReLU::new(0)),
        boxed(Dropout::new(0.4, 0, 11)),
        boxed(MaxPool2d::new(2, 2, 0)),
        boxed(GlobalAvgPool::new(0)),
        boxed(Flatten::new(0)),
    ];
    for layer in &mut layers {
        for mode in MODES {
            assert_routes_agree(layer, &x, mode, &mut rng);
        }
    }
}

/// Every atom of a VGG and a ResNet cascade (conv + BN + ReLU + pool,
/// residual blocks with and without projection, GAP + flatten + linear).
#[test]
fn model_atoms_routes_agree() {
    let mut rng = seeded_rng(4);
    let vgg = models::tiny_vgg(3, 8, 4, &[6, 8], &mut rng);
    let resnet = models::tiny_resnet(3, 8, 4, &[4, 8], &mut rng);
    for mut model in [vgg, resnet] {
        let mut x = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        for atom in model.atoms_mut() {
            for mode in MODES {
                assert_routes_agree(atom, &x, mode, &mut rng);
            }
            x = atom.forward(&x, Mode::Eval);
        }
    }
}

/// The attack pass as it was before `backward_input` existed: the full
/// backward, parameter gradients and all, then `zero_grad` to throw them
/// away. `aux: None` is the plain cross-entropy exit (`ModelTarget`,
/// `ModuleTarget::final_window`); `Some` adds the head and the µ-regularizer
/// (`ModuleTarget`).
struct OldRoute<'a> {
    model: &'a mut CascadeModel,
    aux: Option<&'a mut AuxHead>,
    from: usize,
    to: usize,
    mu: f32,
}

impl AttackTarget for OldRoute<'_> {
    fn loss_and_input_grad(&mut self, z_in: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        let ce = CrossEntropyLoss::new();
        let z_out = self
            .model
            .forward_range(z_in, self.from, self.to, Mode::Eval);
        let (loss, dz_out) = match &mut self.aux {
            Some(aux) => {
                let logits = aux.forward(&z_out, Mode::Eval);
                let (ce_loss, dlogits) = ce.forward(&logits, labels);
                let batch = labels.len() as f32;
                let reg = 0.5 * self.mu * z_out.data().iter().map(|&v| v * v).sum::<f32>() / batch;
                let mut dz_out = aux.backward(&dlogits);
                dz_out.axpy(self.mu / batch, &z_out);
                aux.zero_grad();
                (ce_loss + reg, dz_out)
            }
            None => ce.forward(&z_out, labels),
        };
        let dz_in = self.model.backward_range(&dz_out, self.from, self.to);
        for p in self.model.params_range_mut(self.from, self.to) {
            p.zero_grad();
        }
        (loss, dz_in)
    }

    fn logits(&mut self, z_in: &Tensor) -> Tensor {
        let z_out = self
            .model
            .forward_range(z_in, self.from, self.to, Mode::Eval);
        match &mut self.aux {
            Some(aux) => aux.forward(&z_out, Mode::Eval),
            None => z_out,
        }
    }
}

/// `Pgd` (random start) and `Apgd` outputs on `target`, from `seed`.
fn attack_both(
    target: &mut dyn AttackTarget,
    x: &Tensor,
    y: &[usize],
    ball: NormBall,
    clamp: Option<(f32, f32)>,
    seed: u64,
) -> (Vec<u32>, Vec<u32>) {
    let pgd = Pgd::new(PgdConfig {
        steps: 3,
        alpha: None,
        ball,
        random_start: true,
        restarts: 2,
        clamp,
    });
    let apgd = Apgd::new(ApgdConfig {
        ball,
        clamp,
        ..ApgdConfig::fast(ball.eps())
    });
    let mut rng = seeded_rng(seed);
    let a = pgd.attack(target, x, y, &mut rng);
    let b = apgd.attack(target, x, y, &mut rng);
    (bits(&a), bits(&b))
}

/// A cascade wide enough that its second conv crosses the backend's
/// threading threshold at batch 16, with one head per non-final atom.
fn wide_setup(resnet: bool) -> (CascadeModel, Vec<AuxHead>, Tensor, Vec<usize>) {
    let mut rng = seeded_rng(9);
    let model = if resnet {
        models::tiny_resnet(3, 16, 4, &[16, 32], &mut rng)
    } else {
        models::tiny_vgg(3, 16, 4, &[16, 32], &mut rng)
    };
    let heads = (1..model.num_atoms())
        .map(|k| AuxHead::new("aux", &model.feature_shape(k), 4, &mut rng))
        .collect();
    let x = Tensor::rand_uniform(&[16, 3, 16, 16], 0.0, 1.0, &mut rng);
    let y = (0..16).map(|i| i % 4).collect();
    (model, heads, x, y)
}

#[test]
fn targets_match_the_old_route_bitwise() {
    for resnet in [false, true] {
        for threads in [1, 2] {
            let (mut model, mut heads, x, y) = wide_setup(resnet);
            let backend = backend_for_threads(threads);
            model.set_backend(&backend);
            for h in &mut heads {
                h.set_backend(&backend);
            }
            let n = model.num_atoms();
            let linf = (NormBall::Linf(8.0 / 255.0), Some((0.0, 1.0)));
            let l2 = (NormBall::L2(0.5), None);

            // ModelTarget: the whole model at the image input.
            let (mut reference, mut ours) = (model.clone(), model.clone());
            let want = attack_both(
                &mut OldRoute {
                    model: &mut reference,
                    aux: None,
                    from: 0,
                    to: n,
                    mu: 0.0,
                },
                &x,
                &y,
                linf.0,
                linf.1,
                1,
            );
            let got = attack_both(&mut ModelTarget::new(&mut ours), &x, &y, linf.0, linf.1, 1);
            assert_eq!(got, want, "ModelTarget, resnet={resnet}, threads={threads}");

            // ModuleTarget: the first window at the image (ℓ∞), a middle
            // one at its input feature (ℓ2).
            for (from, to, (ball, clamp)) in [(0, 1, linf), (1, n - 1, l2)] {
                let z_in = if from == 0 {
                    x.clone()
                } else {
                    model.forward_range(&x, 0, from, Mode::Eval)
                };
                let (mut reference, mut ours) = (model.clone(), model.clone());
                let (mut ref_head, mut our_head) = (heads[to - 1].clone(), heads[to - 1].clone());
                let want = attack_both(
                    &mut OldRoute {
                        model: &mut reference,
                        aux: Some(&mut ref_head),
                        from,
                        to,
                        mu: 1e-2,
                    },
                    &z_in,
                    &y,
                    ball,
                    clamp,
                    2,
                );
                let got = attack_both(
                    &mut ModuleTarget::new(&mut ours, &mut our_head, from, to, 1e-2),
                    &z_in,
                    &y,
                    ball,
                    clamp,
                    2,
                );
                assert_eq!(
                    got, want,
                    "ModuleTarget {from}..{to}, resnet={resnet}, threads={threads}"
                );
            }

            // The final window: the last two atoms at their input feature.
            let from = n - 2;
            let z_in = model.forward_range(&x, 0, from, Mode::Eval);
            let (mut reference, mut ours) = (model.clone(), model.clone());
            let want = attack_both(
                &mut OldRoute {
                    model: &mut reference,
                    aux: None,
                    from,
                    to: n,
                    mu: 0.0,
                },
                &z_in,
                &y,
                l2.0,
                l2.1,
                3,
            );
            let got = attack_both(
                &mut ModuleTarget::final_window(&mut ours, from),
                &z_in,
                &y,
                l2.0,
                l2.1,
                3,
            );
            assert_eq!(
                got, want,
                "ModuleTarget::final_window, resnet={resnet}, threads={threads}"
            );
        }
    }
}

fn zero_window(model: &mut CascadeModel, from: usize, to: usize) {
    for p in model.params_range_mut(from, to) {
        p.zero_grad();
    }
}

/// `train_module_window` transcribed with the inner maximization on
/// [`OldRoute`]; the training step itself (full backward, SGD) is the
/// public one it has always been.
fn reference_train_module_window(
    model: &mut CascadeModel,
    mut aux: Option<&mut AuxHead>,
    ds: &Dataset,
    indices: &[usize],
    cfg: &WindowTrainConfig,
) -> f32 {
    let (from, to) = (cfg.from_atom, cfg.to_atom);
    let mut it = BatchIter::new(ds, indices, cfg.batch_size, cfg.seed);
    let mut opt = Sgd::new(cfg.momentum, cfg.weight_decay);
    let mut rng = seeded_rng(cfg.seed ^ 0xCA5CADE);
    let (ball, clamp) = if from == 0 {
        (NormBall::Linf(cfg.epsilon), Some((0.0, 1.0)))
    } else {
        (NormBall::L2(cfg.epsilon), None)
    };
    let pgd = Pgd::new(PgdConfig {
        steps: cfg.pgd_steps,
        alpha: None,
        ball,
        random_start: true,
        restarts: 1,
        clamp,
    });
    let backend = backend_for_threads(cfg.backend_threads);
    model.set_backend(&backend);
    if let Some(a) = aux.as_deref_mut() {
        a.set_backend(&backend);
    }
    let mut total = 0.0f64;
    for _ in 0..cfg.iters {
        let (x, y) = it.next_batch();
        let z_in = if from == 0 {
            x
        } else {
            model.forward_range(&x, 0, from, Mode::Eval)
        };
        let adv = pgd.attack(
            &mut OldRoute {
                model,
                aux: aux.as_deref_mut(),
                from,
                to,
                mu: cfg.mu,
            },
            &z_in,
            &y,
            &mut rng,
        );
        zero_window(model, from, to);
        let loss = match aux.as_deref_mut() {
            Some(aux) => {
                aux.zero_grad();
                let (loss, _) = ModuleTarget::new(model, aux, from, to, cfg.mu).loss_and_grads(
                    &adv,
                    &y,
                    Mode::Train,
                );
                let mut params = model.params_range_mut(from, to);
                params.extend(aux.params_mut());
                opt.step(&mut params, cfg.lr);
                loss
            }
            None => {
                let loss = ModuleTarget::final_window(model, from).train_step(&adv, &y);
                opt.step(&mut model.params_range_mut(from, to), cfg.lr);
                loss
            }
        };
        total += loss as f64;
    }
    (total / cfg.iters as f64) as f32
}

/// `local_train` (adversarial mode) transcribed the same way.
fn reference_local_train(
    model: &mut CascadeModel,
    ds: &Dataset,
    indices: &[usize],
    cfg: &LocalTrainConfig,
) -> f32 {
    let mut it = BatchIter::new(ds, indices, cfg.batch_size, cfg.seed);
    let mut opt = Sgd::new(cfg.momentum, cfg.weight_decay);
    let ce = CrossEntropyLoss::new();
    let pgd = Pgd::new(cfg.pgd.expect("adversarial mode"));
    let mut rng = seeded_rng(cfg.seed ^ 0xADC0FFEE);
    let n = model.num_atoms();
    let mut total = 0.0f64;
    for _ in 0..cfg.iters {
        let (x, y) = it.next_batch();
        let adv = pgd.attack(
            &mut OldRoute {
                model,
                aux: None,
                from: 0,
                to: n,
                mu: 0.0,
            },
            &x,
            &y,
            &mut rng,
        );
        let logits = model.forward(&adv, Mode::Train);
        let (loss, dlogits) = ce.forward(&logits, &y);
        model.zero_grad();
        model.backward(&dlogits);
        opt.step(&mut model.params_mut(), cfg.lr);
        total += loss as f64;
    }
    (total / cfg.iters as f64) as f32
}

/// Parameters, BN statistics and (when given) head parameters, as bits.
fn state_bits(model: &CascadeModel, aux: Option<&AuxHead>) -> Vec<u32> {
    let mut out: Vec<u32> = model.flat_params().iter().map(|v| v.to_bits()).collect();
    for (mean, var) in model.bn_stats() {
        out.extend(bits(&mean));
        out.extend(bits(&var));
    }
    if let Some(aux) = aux {
        out.extend(aux.flat_params().iter().map(|v| v.to_bits()));
    }
    out
}

#[test]
fn window_training_matches_the_old_route_bitwise() {
    let ds = generate(&SynthConfig::tiny(4, 16), 17).train;
    let idx: Vec<usize> = (0..ds.len()).collect();
    for resnet in [false, true] {
        let (model, heads, _, _) = wide_setup(resnet);
        let n = model.num_atoms();
        // (window, head index): first module at the image, a middle
        // module at its feature, the final window on the classifier.
        for (from, to, head) in [(0, 1, Some(0)), (1, n - 1, Some(n - 2)), (n - 2, n, None)] {
            for threads in [1, 2] {
                let cfg = WindowTrainConfig {
                    from_atom: from,
                    to_atom: to,
                    epsilon: if from == 0 { 8.0 / 255.0 } else { 0.5 },
                    mu: 1e-3,
                    pgd_steps: 2,
                    iters: 3,
                    batch_size: 16,
                    lr: 0.05,
                    momentum: 0.9,
                    weight_decay: 1e-4,
                    seed: 5,
                    backend_threads: threads,
                };
                let run = |reference: bool| {
                    let mut m = model.clone();
                    let mut h = head.map(|i| heads[i].clone());
                    let loss = if reference {
                        reference_train_module_window(&mut m, h.as_mut(), &ds, &idx, &cfg)
                    } else {
                        train_module_window(&mut m, h.as_mut(), &ds, &idx, &cfg)
                    };
                    (loss.to_bits(), state_bits(&m, h.as_ref()))
                };
                let ours = run(false);
                assert_eq!(ours, run(false), "train_module_window is not deterministic");
                assert_eq!(
                    ours,
                    run(true),
                    "window {from}..{to}, resnet={resnet}, threads={threads}"
                );
            }
        }
    }
}

#[test]
fn local_train_matches_the_old_route_bitwise() {
    let ds = generate(&SynthConfig::tiny(4, 16), 23).train;
    let idx: Vec<usize> = (0..ds.len()).collect();
    let cfg = LocalTrainConfig {
        iters: 3,
        batch_size: 16,
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 1e-4,
        pgd: Some(PgdConfig::fast(8.0 / 255.0)),
        seed: 3,
    };
    for resnet in [false, true] {
        for threads in [1, 2] {
            let (mut model, _, _, _) = wide_setup(resnet);
            model.set_backend(&backend_for_threads(threads));
            let run = |reference: bool| {
                let mut m = model.clone();
                let loss = if reference {
                    reference_local_train(&mut m, &ds, &idx, &cfg)
                } else {
                    local_train(&mut m, &ds, &idx, &cfg)
                };
                (loss.to_bits(), state_bits(&m, None))
            };
            let ours = run(false);
            assert_eq!(ours, run(false), "local_train is not deterministic");
            assert_eq!(ours, run(true), "resnet={resnet}, threads={threads}");
        }
    }
}
