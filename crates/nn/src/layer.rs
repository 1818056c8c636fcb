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

    /// Batch-norm running statistics `(mean, var)`, if this layer has any.
    ///
    /// Used by the FedRBN baseline, which propagates adversarial BN
    /// statistics between clients.
    fn bn_stats(&self) -> Option<(&Tensor, &Tensor)> {
        None
    }

    /// Overwrites batch-norm running statistics. No-op for layers without
    /// them.
    fn set_bn_stats(&mut self, _mean: &Tensor, _var: &Tensor) {}

    /// Drops cached activations (frees memory between rounds). Optional.
    fn clear_cache(&mut self) {}

    /// Points this layer (and any nested layers) at a compute backend.
    ///
    /// Layers with GEMM/im2col traffic ([`crate::Conv2d`],
    /// [`crate::Linear`]) store the handle; composite layers recurse;
    /// parameter-free layers ignore it. Federated loops use this to budget
    /// kernel threads per client (see `fp_tensor::parallel::thread_split`).
    fn set_backend(&mut self, _backend: &fp_tensor::BackendHandle) {}

    /// Collects BN running statistics from this layer and any nested
    /// layers, in a stable traversal order. Composite layers override this
    /// to recurse.
    fn collect_inner_bn(&self, out: &mut Vec<(Tensor, Tensor)>) {
        if let Some((m, v)) = self.bn_stats() {
            out.push((m.clone(), v.clone()));
        }
    }

    /// Applies BN running statistics in the order produced by
    /// [`Layer::collect_inner_bn`]. `stats` must contain exactly as many
    /// entries as this layer holds.
    fn apply_inner_bn(&mut self, stats: &[(Tensor, Tensor)]) {
        if self.bn_stats().is_some() {
            assert_eq!(stats.len(), 1, "bn stats count mismatch");
            let (m, v) = &stats[0];
            self.set_bn_stats(m, v);
        } else {
            assert!(stats.is_empty(), "bn stats offered to a bn-free layer");
        }
    }

    /// Number of batch-norm layers inside this layer (including itself).
    fn bn_count(&self) -> usize {
        let mut tmp = Vec::new();
        self.collect_inner_bn(&mut tmp);
        tmp.len()
    }
}

/// One backward step through a child layer: [`Layer::backward`] or
/// [`Layer::backward_input`]. Composite layers write their chain rule once
/// against this and instantiate it for both entry points.
pub(crate) type BackStep = fn(&mut dyn Layer, &Tensor) -> Tensor;

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Copies all parameter values from `src` to `dst` (same architecture).
///
/// # Panics
///
/// Panics if the two layers expose different parameter lists.
pub fn copy_params(src: &dyn Layer, dst: &mut dyn Layer) {
    let src_params = src.params();
    let mut dst_params = dst.params_mut();
    assert_eq!(
        src_params.len(),
        dst_params.len(),
        "parameter count mismatch"
    );
    for (s, d) in src_params.iter().zip(dst_params.iter_mut()) {
        d.set_value(s.value().clone());
    }
}
