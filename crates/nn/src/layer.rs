//! The object-safe layer trait.

use crate::param::Param;
use crate::spec::LayerSpec;
use fp_tensor::Tensor;

/// Forward-pass mode.
///
/// `Train` updates batch-norm running statistics and applies dropout;
/// `Eval` uses running statistics and disables dropout. Adversarial example
/// generation runs in `Eval` mode (fixed statistics make the inner
/// maximization well-defined), matching common adversarial-training
/// practice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training: live batch statistics, dropout active.
    Train,
    /// Inference: running statistics, dropout inactive.
    Eval,
}

/// A differentiable network layer with explicit forward/backward.
///
/// The contract:
///
/// * `forward` caches whatever it needs (inputs, masks, batch statistics)
///   for a subsequent backward pass;
/// * `backward_input` consumes the most recent cache and returns the
///   gradient with respect to the layer input. It **does not touch** any
///   [`Param::grad`]: attack passes (PGD perturbs intermediate features,
///   paper §5.1) fetch only `∇_x`, so whatever gradients a training loop
///   has accumulated are bitwise the same before and after;
/// * `backward` **accumulates** parameter gradients into
///   [`Param::grad_mut`] and then returns exactly what `backward_input`
///   returns for the same cache — every layer has one dX routine, which
///   both entry points run (`tests/attack_pass_equivalence.rs` pins the two
///   results bitwise equal for every layer kind);
/// * `backward_params` accumulates the same parameter gradients as
///   `backward` and skips dX — the first layer of a training step;
/// * `spec` returns a weight-free description aligned 1:1 with `params`
///   order, which the hardware simulator and the sub-model slicers rely on.
///
/// Layers are `Send + Sync` so federated clients can clone a shared global
/// model into parallel training threads, and cloneable through
/// [`Layer::clone_box`]. (`Sync` is sound: layers hold only owned data and
/// mutate exclusively through `&mut self`.)
pub trait Layer: Send + Sync {
    /// Runs the layer on `x`, caching state for the backward pass.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor;

    /// The forward of an attack pass — a forward read only by an input
    /// gradient: the output of `forward(x, Mode::Eval)` bit for bit,
    /// caching only what [`Layer::backward_input`] reads. `Conv2d` and
    /// `Linear` keep no input copy and `BatchNorm2d` no `x̂`; a
    /// [`crate::Sequential`] runs each `BatchNorm2d → ReLU → MaxPool2d(2, 2)`
    /// run in it as one pass. After it, [`Layer::backward`] and
    /// [`Layer::backward_params`] panic naming this route (a layer
    /// without parameters may still serve them).
    ///
    /// The default is `forward(x, Mode::Eval)`, which caches everything.
    fn forward_dx_only(&mut self, x: &Tensor) -> Tensor {
        self.forward(x, Mode::Eval)
    }

    /// Back-propagates `grad_out` to the layer input only: returns dX and
    /// leaves every parameter gradient untouched.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor;

    /// Back-propagates `grad_out`, accumulating parameter gradients and
    /// returning the gradient with respect to the layer input.
    ///
    /// The default serves parameter-free layers, whose whole backward is
    /// [`Layer::backward_input`]; a layer with parameters overrides it to
    /// accumulate their gradients before running the same dX routine.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_input(grad_out)
    }

    /// Back-propagates `grad_out` into the parameter gradients only: every
    /// [`Param::grad`] ends bitwise where [`Layer::backward`] would leave
    /// it, and the gradient with respect to the layer input is not
    /// computed. This is the backward of a training step's first layer,
    /// whose dX nobody reads.
    ///
    /// The default runs [`Layer::backward`] and drops its dX (and does
    /// nothing for a layer without parameters); [`crate::Conv2d`],
    /// [`crate::Linear`] and [`crate::Sequential`] override it so that no
    /// dX kernel runs at all.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward_params(&mut self, grad_out: &Tensor) {
        if !self.params().is_empty() {
            self.backward(grad_out);
        }
    }

    /// Immutable views of the trainable parameters, in a stable order.
    fn params(&self) -> Vec<&Param>;

    /// Mutable views of the trainable parameters, same order as `params`.
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Weight-free description of this layer (shape bookkeeping only).
    fn spec(&self) -> LayerSpec;

    /// Output shape for a given input shape (without batch dimension for
    /// rank-3 image inputs, `[c, h, w]` → `[c', h', w']`).
    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        self.spec().output_shape(input)
    }

    /// Clones the layer behind a box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Batch-norm running statistics `(mean, var)` of this layer and any
    /// nested layers, walked in the same order as `params`.
    ///
    /// Used by the FedRBN baseline, which propagates adversarial BN
    /// statistics between clients, and by checkpoints.
    fn running_stats(&self) -> Vec<(&Tensor, &Tensor)> {
        Vec::new()
    }

    /// Mutable views of the running statistics, same order as
    /// `running_stats`.
    fn running_stats_mut(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        Vec::new()
    }

    /// Drops cached activations (frees memory between rounds). Optional.
    fn clear_cache(&mut self) {}

    /// Points this layer (and any nested layers) at a compute backend.
    ///
    /// Layers with GEMM/im2col traffic ([`crate::Conv2d`],
    /// [`crate::Linear`]) store the handle; composite layers recurse;
    /// parameter-free layers ignore it. Federated loops use this to budget
    /// kernel threads per client (see `fp_tensor::parallel::thread_split`).
    fn set_backend(&mut self, _backend: &fp_tensor::BackendHandle) {}
}

/// The panic of a parameter backward after [`Layer::forward_dx_only`].
pub(crate) const DX_ONLY_ROUTE: &str =
    "parameter backward after forward_dx_only: the dX-only route caches no parameter-gradient inputs";

/// One backward step through a child layer: [`Layer::backward`] or
/// [`Layer::backward_input`]. Composite layers write their chain rule once
/// against this and instantiate it for both entry points.
pub(crate) type BackStep = fn(&mut dyn Layer, &Tensor) -> Tensor;

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        models, BasicBlock, BatchNorm2d, CascadeModel, Conv2d, Dropout, Flatten, GlobalAvgPool,
        Linear, MaxPool2d, ReLU, Sequential,
    };
    use fp_tensor::seeded_rng;

    /// Every parameter gradient, as bits, in `params` order.
    fn grad_bits(params: Vec<&Param>) -> Vec<Vec<u32>> {
        params
            .iter()
            .map(|p| p.grad().data().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// Fills every gradient with noise: a caller mid-accumulation.
    fn seed_grads(params: Vec<&mut Param>, rng: &mut rand::rngs::StdRng) {
        for p in params {
            *p.grad_mut() = Tensor::rand_uniform(p.grad().shape(), -1.0, 1.0, rng);
        }
    }

    /// After the same forward, `backward_params` on one copy and `backward`
    /// on another leave every parameter gradient bitwise equal, in both
    /// modes and from pre-seeded gradients.
    fn check_layer(layer: Box<dyn Layer>, x: &Tensor, what: &str) {
        let mut rng = seeded_rng(9);
        let mut full = layer;
        seed_grads(full.params_mut(), &mut rng);
        let mut only = full.clone_box();
        for mode in [Mode::Train, Mode::Eval] {
            let y = full.forward(x, mode);
            assert_eq!(y, only.forward(x, mode), "{what} {mode:?} forward");
            let g = Tensor::rand_uniform(y.shape(), -1.0, 1.0, &mut rng);
            full.backward(&g);
            only.backward_params(&g);
            assert_eq!(
                grad_bits(only.params()),
                grad_bits(full.params()),
                "{what} {mode:?}"
            );
        }
    }

    #[test]
    fn backward_params_matches_backward_for_every_layer_kind() {
        let mut rng = seeded_rng(3);
        let img = Tensor::rand_uniform(&[3, 4, 6, 6], -1.0, 1.0, &mut rng);
        let flat = img.reshaped(&[3, 4 * 36]);
        let layers: Vec<(&str, Box<dyn Layer>, &Tensor)> = vec![
            (
                "conv 3x3 s1 bias",
                Box::new(Conv2d::new("c", 4, 5, 3, 1, 1, true, 0, 1, &mut rng)),
                &img,
            ),
            (
                "conv 1x1 s2",
                Box::new(Conv2d::new("c", 4, 6, 1, 2, 0, false, 0, 1, &mut rng)),
                &img,
            ),
            (
                "linear",
                Box::new(Linear::new("fc", 4 * 36, 7, 36, 0, 1, &mut rng)),
                &flat,
            ),
            ("bn", Box::new(BatchNorm2d::new("bn", 4, 0)), &img),
            ("relu", Box::new(ReLU::new(0)), &img),
            ("maxpool", Box::new(MaxPool2d::new(2, 2, 0)), &img),
            ("gap", Box::new(GlobalAvgPool::new(0)), &img),
            ("flatten", Box::new(Flatten::new(0)), &img),
            ("dropout", Box::new(Dropout::new(0.3, 0, 5)), &img),
            (
                "basic block, identity",
                Box::new(BasicBlock::new("b", 4, 4, 1, 0, 0, &mut rng)),
                &img,
            ),
            (
                "basic block, projection",
                Box::new(BasicBlock::new("b", 4, 8, 2, 0, 1, &mut rng)),
                &img,
            ),
            (
                "sequential",
                Box::new(
                    Sequential::new()
                        .push(Box::new(Conv2d::new(
                            "c", 4, 6, 3, 1, 1, false, 0, 1, &mut rng,
                        )))
                        .push(Box::new(BatchNorm2d::new("bn", 6, 1)))
                        .push(Box::new(ReLU::new(1)))
                        .push(Box::new(MaxPool2d::new(2, 2, 1)))
                        .push(Box::new(Flatten::new(1)))
                        .push(Box::new(Linear::new("fc", 6 * 9, 3, 9, 1, 2, &mut rng))),
                ),
                &img,
            ),
            ("empty sequential", Box::new(Sequential::new()), &img),
        ];
        for (what, layer, x) in layers {
            check_layer(layer, x, what);
        }
    }

    /// For every atom range of a VGG and a ResNet cascade:
    /// `backward_params_range` leaves every parameter gradient of the
    /// model bitwise where `backward_range` does.
    #[test]
    fn backward_params_matches_backward_for_cascade_ranges() {
        let mut rng = seeded_rng(4);
        let vgg = models::tiny_vgg(3, 8, 4, &[4, 6, 8], &mut rng);
        let resnet = models::tiny_resnet(3, 8, 4, &[4, 8], &mut rng);
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        for (name, model) in [("vgg", vgg), ("resnet", resnet)] {
            let n = model.num_atoms();
            for from in 0..n {
                for to in from + 1..=n {
                    let mut full: CascadeModel = model.clone();
                    seed_grads(full.params_mut(), &mut rng);
                    let z = if from == 0 {
                        x.clone()
                    } else {
                        full.forward_range(&x, 0, from, Mode::Eval)
                    };
                    let mut only = full.clone();
                    let y = full.forward_range(&z, from, to, Mode::Train);
                    only.forward_range(&z, from, to, Mode::Train);
                    let g = Tensor::rand_uniform(y.shape(), -1.0, 1.0, &mut rng);
                    full.backward_range(&g, from, to);
                    only.backward_params_range(&g, from, to);
                    assert_eq!(
                        grad_bits(only.params()),
                        grad_bits(full.params()),
                        "{name} atoms {from}..{to}"
                    );
                }
            }
            let (mut full, mut only) = (model.clone(), model);
            let y = full.forward(&x, Mode::Train);
            only.forward(&x, Mode::Train);
            let g = Tensor::rand_uniform(y.shape(), -1.0, 1.0, &mut rng);
            full.backward(&g);
            only.backward_params(&g);
            assert_eq!(grad_bits(only.params()), grad_bits(full.params()), "{name}");
        }
    }
}
