//! The auxiliary early-exit model.

use fp_nn::{GlobalAvgPool, Layer, Linear, Mode, Param};
use fp_tensor::Tensor;
use rand::Rng;

/// The auxiliary output model `θ_m` of a cascade module: global average
/// pooling (for feature-map inputs) followed by **one linear layer**
/// (paper §5.1 design (1): a linear head keeps the early-exit loss convex
/// in `z_m`; the added `µ/2‖z_m‖²` regularizer makes it strongly convex —
/// Lemma 1's premise).
///
/// Feature inputs may be `[b, c, h, w]` (pooled) or already flat `[b, d]`
/// (pooling skipped), so heads attach uniformly to conv and FC modules.
pub struct AuxHead {
    pool: GlobalAvgPool,
    linear: Linear,
    pooled: bool,
}

impl AuxHead {
    /// Creates a head for module outputs of per-sample shape `feature`
    /// (`[c, h, w]` or `[d]`).
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        feature: &[usize],
        n_classes: usize,
        rng: &mut R,
    ) -> Self {
        let channels = feature[0];
        AuxHead {
            pool: GlobalAvgPool::new(0),
            linear: Linear::new(
                name,
                channels,
                n_classes,
                1,
                0,
                fp_nn::spec::GROUP_OUTPUT,
                rng,
            ),
            pooled: feature.len() > 1,
        }
    }

    /// Logits for a batch of module outputs.
    pub fn forward(&mut self, z: &Tensor, mode: Mode) -> Tensor {
        if self.pooled {
            let p = self.pool.forward(z, mode);
            self.linear.forward(&p, mode)
        } else {
            self.linear.forward(z, mode)
        }
    }

    /// Back-propagates a logits gradient, accumulating head parameter
    /// gradients; returns the gradient with respect to the module output.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Tensor {
        let g = self.linear.backward(grad_logits);
        self.unpool(g)
    }

    /// Input-gradient-only backward (see [`Layer::backward_input`]): the
    /// same tensor [`AuxHead::backward`] returns, head parameter gradients
    /// untouched.
    pub fn backward_input(&mut self, grad_logits: &Tensor) -> Tensor {
        let g = self.linear.backward_input(grad_logits);
        self.unpool(g)
    }

    /// Back through the pooling stage, if the head has one.
    fn unpool(&mut self, g: Tensor) -> Tensor {
        if self.pooled {
            self.pool.backward_input(&g)
        } else {
            g
        }
    }

    /// Trainable parameters (the linear layer's weight and bias).
    pub fn params(&self) -> Vec<&Param> {
        self.linear.params()
    }

    /// Trainable parameters, mutable.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.linear.params_mut()
    }

    /// Points the head's linear layer at a compute backend.
    pub fn set_backend(&mut self, backend: &fp_tensor::BackendHandle) {
        self.linear.set_backend(backend);
    }

    /// Zeroes gradients.
    pub fn zero_grad(&mut self) {
        for p in self.linear.params_mut() {
            p.zero_grad();
        }
    }

    /// Flat parameter vector (aggregation transport).
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for p in self.linear.params() {
            out.extend_from_slice(p.value().data());
        }
        out
    }

    /// Writes a flat vector produced by [`AuxHead::flat_params`].
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn set_flat_params(&mut self, flat: &[f32]) {
        let mut off = 0;
        for p in self.linear.params_mut() {
            let n = p.numel();
            p.value_mut()
                .data_mut()
                .copy_from_slice(&flat[off..off + n]);
            off += n;
        }
        assert_eq!(off, flat.len(), "aux flat vector length mismatch");
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.linear.params().iter().map(|p| p.numel()).sum()
    }
}

impl Clone for AuxHead {
    fn clone(&self) -> Self {
        AuxHead {
            pool: self.pool.clone(),
            linear: self.linear.clone(),
            pooled: self.pooled,
        }
    }
}

impl std::fmt::Debug for AuxHead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuxHead")
            .field("pooled", &self.pooled)
            .field("params", &self.param_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_head_shapes() {
        let mut rng = fp_tensor::seeded_rng(0);
        let mut head = AuxHead::new("aux", &[8, 4, 4], 5, &mut rng);
        let z = Tensor::rand_uniform(&[2, 8, 4, 4], -1.0, 1.0, &mut rng);
        let logits = head.forward(&z, Mode::Eval);
        assert_eq!(logits.shape(), &[2, 5]);
        let dz = head.backward(&Tensor::ones(&[2, 5]));
        assert_eq!(dz.shape(), z.shape());
    }

    #[test]
    fn flat_head_skips_pooling() {
        let mut rng = fp_tensor::seeded_rng(1);
        let mut head = AuxHead::new("aux", &[16], 3, &mut rng);
        let z = Tensor::rand_uniform(&[4, 16], -1.0, 1.0, &mut rng);
        assert_eq!(head.forward(&z, Mode::Eval).shape(), &[4, 3]);
    }

    #[test]
    fn flat_params_roundtrip() {
        let mut rng = fp_tensor::seeded_rng(2);
        let head = AuxHead::new("aux", &[8, 2, 2], 4, &mut rng);
        let flat = head.flat_params();
        assert_eq!(flat.len(), head.param_count());
        let mut other = AuxHead::new("aux", &[8, 2, 2], 4, &mut rng);
        other.set_flat_params(&flat);
        assert_eq!(other.flat_params(), flat);
    }

    #[test]
    fn head_param_count_matches_spec() {
        let mut rng = fp_tensor::seeded_rng(3);
        let head = AuxHead::new("aux", &[32, 4, 4], 10, &mut rng);
        let spec = fp_hwsim::AuxHeadSpec::for_feature(&[32, 4, 4], 10);
        assert_eq!(head.param_count(), spec.param_count());
    }
}
