//! Fully connected layer.

use super::cache_copy;
use crate::layer::{Layer, Mode};
use crate::param::Param;
use crate::spec::{LayerKind, LayerSpec};
use fp_tensor::{BackendHandle, Tensor};
use rand::Rng;

/// A fully connected layer: `y = x·Wᵀ + b`.
///
/// Input `[batch, d_in]`, output `[batch, d_out]`; the weight is stored
/// `[d_out, d_in]` (PyTorch convention) so sub-model slicing removes rows
/// for output channels and columns for input channels.
#[derive(Debug, Clone)]
pub struct Linear {
    w: Param,
    b: Param,
    d_in: usize,
    d_out: usize,
    in_spatial: usize,
    in_group: usize,
    out_group: usize,
    backend: BackendHandle,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a Kaiming-initialized linear layer.
    ///
    /// `in_spatial` records the spatial multiplicity at the flatten point
    /// for channel-structured slicing (use 1 after global pooling).
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        d_in: usize,
        d_out: usize,
        in_spatial: usize,
        in_group: usize,
        out_group: usize,
        rng: &mut R,
    ) -> Self {
        assert!(d_in > 0 && d_out > 0, "linear dims must be positive");
        assert_eq!(d_in % in_spatial, 0, "d_in must be divisible by in_spatial");
        let w = crate::init::kaiming_normal(&[d_out, d_in], d_in, rng);
        Linear {
            w: Param::new(format!("{name}.w"), w),
            b: Param::new(format!("{name}.b"), Tensor::zeros(&[d_out])),
            d_in,
            d_out,
            in_spatial,
            in_group,
            out_group,
            backend: fp_tensor::default_backend(),
            cached_input: None,
        }
    }

    /// Input features.
    pub fn d_in(&self) -> usize {
        self.d_in
    }

    /// Output features.
    pub fn d_out(&self) -> usize {
        self.d_out
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        assert_eq!(x.shape().len(), 2, "linear input must be [batch, d_in]");
        assert_eq!(x.shape()[1], self.d_in, "linear input width mismatch");
        let batch = x.shape()[0];
        let mut out = Tensor::zeros(&[batch, self.d_out]);
        // y = x · Wᵀ
        self.backend.matmul_nt_into(
            x.data(),
            self.w.value().data(),
            out.data_mut(),
            batch,
            self.d_in,
            self.d_out,
        );
        let bias = self.b.value().data();
        for r in 0..batch {
            let row = &mut out.data_mut()[r * self.d_out..(r + 1) * self.d_out];
            for (o, &bv) in row.iter_mut().zip(bias.iter()) {
                *o += bv;
            }
        }
        self.cached_input = Some(cache_copy(self.cached_input.take(), x));
        out
    }

    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let batch = x.shape()[0];
        assert_eq!(grad_out.shape(), [batch, self.d_out]);
        // dX = dY · W
        let mut dx = Tensor::zeros(&[batch, self.d_in]);
        self.backend.matmul_into(
            grad_out.data(),
            self.w.value().data(),
            dx.data_mut(),
            batch,
            self.d_out,
            self.d_in,
        );
        dx
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let batch = x.shape()[0];
        assert_eq!(grad_out.shape(), [batch, self.d_out]);
        // dW += dYᵀ·X  (i.e. for W[d_out,d_in]: dW = gradᵀ · x)
        self.backend.matmul_tn_into(
            grad_out.data(),
            x.data(),
            self.w.grad_mut().data_mut(),
            batch,
            self.d_out,
            self.d_in,
        );
        // db += column sums of dY
        let db = self.b.grad_mut().data_mut();
        for r in 0..batch {
            let row = &grad_out.data()[r * self.d_out..(r + 1) * self.d_out];
            for (g, &d) in db.iter_mut().zip(row.iter()) {
                *g += d;
            }
        }
        self.backward_input(grad_out)
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.w, &self.b]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::new(
            LayerKind::Linear {
                d_in: self.d_in,
                d_out: self.d_out,
                in_spatial: self.in_spatial,
            },
            self.in_group,
            self.out_group,
        )
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        self.cached_input = None;
    }

    fn set_backend(&mut self, backend: &BackendHandle) {
        self.backend = backend.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_layer_gradients, check_layer_input_gradients};

    #[test]
    fn forward_known_values() {
        let mut rng = fp_tensor::seeded_rng(0);
        let mut l = Linear::new("fc", 2, 2, 1, 0, 1, &mut rng);
        l.params_mut()[0].set_value(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        l.params_mut()[1].set_value(Tensor::from_vec(vec![0.5, -0.5], &[2]));
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = l.forward(&x, Mode::Eval);
        // y = [1+2+0.5, 3+4-0.5]
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = fp_tensor::seeded_rng(11);
        let mut l = Linear::new("fc", 5, 3, 1, 0, 1, &mut rng);
        check_layer_gradients(&mut l, &[2, 5], &mut rng);
    }

    #[test]
    fn input_gradient_only_route_matches_finite_differences() {
        let mut rng = fp_tensor::seeded_rng(12);
        let mut l = Linear::new("fc", 5, 3, 1, 0, 1, &mut rng);
        check_layer_input_gradients(&mut l, &[2, 5], &mut rng);
    }

    #[test]
    fn backward_accumulates_across_calls() {
        let mut rng = fp_tensor::seeded_rng(1);
        let mut l = Linear::new("fc", 2, 2, 1, 0, 1, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        let g = Tensor::ones(&[1, 2]);
        l.forward(&x, Mode::Train);
        l.backward(&g);
        let after_one = l.params()[0].grad().clone();
        l.forward(&x, Mode::Train);
        l.backward(&g);
        let after_two = l.params()[0].grad().clone();
        for (a, b) in after_one.data().iter().zip(after_two.data()) {
            assert!((b - 2.0 * a).abs() < 1e-5, "grad should double");
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_wrong_input_width() {
        let mut rng = fp_tensor::seeded_rng(1);
        let mut l = Linear::new("fc", 3, 2, 1, 0, 1, &mut rng);
        l.forward(&Tensor::ones(&[1, 4]), Mode::Eval);
    }
}
