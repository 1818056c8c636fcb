//! 2-D convolution, lowered to GEMM by the backend.

use super::cache_copy;
use crate::layer::{Layer, Mode};
use crate::param::Param;
use crate::spec::{LayerKind, LayerSpec};
use fp_tensor::{BackendHandle, Conv2dGeometry, Tensor};
use rand::Rng;

/// A 2-D convolution with square kernels, symmetric zero padding, and an
/// optional bias.
///
/// Input `[batch, c_in, h, w]`, output `[batch, c_out, h', w']`. The weight
/// is `[c_out, c_in, k, k]`. Forward and both backward products go through
/// the backend's batched `conv2d_*` entry points: the `Parallel` backend
/// stages a few samples at a time as zero-padded images and gathers its
/// packed-GEMM panels from them by offset table, the batch folded into
/// the GEMM (no materialized `cols` buffer), while the `Scalar` reference
/// path materializes the columns in the layer's reusable workspace.
/// Backward only needs the cached *input* (`c_in·h·w` floats per sample
/// instead of `c_in·k²·h'·w'` for a `cols` cache), copied into the
/// previous forward's buffer when the element count is unchanged.
#[derive(Debug, Clone)]
pub struct Conv2d {
    w: Param,
    b: Option<Param>,
    c_in: usize,
    c_out: usize,
    k: usize,
    stride: usize,
    pad: usize,
    in_group: usize,
    out_group: usize,
    backend: BackendHandle,
    cached: Option<Cache>,
    /// Per-layer scratch handed to the backend (packed weight panels on
    /// the `Parallel` path, materialized columns on the reference path),
    /// reused across iterations instead of reallocating per sample.
    ws: Vec<f32>,
}

#[derive(Debug, Clone)]
struct Cache {
    x: Tensor,
    geo: Conv2dGeometry,
    batch: usize,
}

impl Cache {
    /// The cached forward, after checking that `grad_out` has its output
    /// shape.
    fn for_grad<'a>(cached: &'a Option<Cache>, c_out: usize, grad_out: &Tensor) -> &'a Cache {
        let cache = cached.as_ref().expect("backward called before forward");
        assert_eq!(
            grad_out.shape(),
            [cache.batch, c_out, cache.geo.h_out(), cache.geo.w_out()],
            "grad_out shape mismatch"
        );
        cache
    }
}

impl Conv2d {
    /// Creates a Kaiming-initialized convolution.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        c_in: usize,
        c_out: usize,
        k: usize,
        stride: usize,
        pad: usize,
        bias: bool,
        in_group: usize,
        out_group: usize,
        rng: &mut R,
    ) -> Self {
        assert!(
            c_in > 0 && c_out > 0 && k > 0 && stride > 0,
            "conv dims must be positive"
        );
        let fan_in = c_in * k * k;
        let w = crate::init::kaiming_normal(&[c_out, c_in, k, k], fan_in, rng);
        Conv2d {
            w: Param::new(format!("{name}.w"), w),
            b: bias.then(|| Param::new(format!("{name}.b"), Tensor::zeros(&[c_out]))),
            c_in,
            c_out,
            k,
            stride,
            pad,
            in_group,
            out_group,
            backend: fp_tensor::default_backend(),
            cached: None,
            ws: Vec::new(),
        }
    }

    fn geometry(&self, h: usize, w: usize) -> Conv2dGeometry {
        Conv2dGeometry {
            c_in: self.c_in,
            h,
            w,
            k: self.k,
            stride: self.stride,
            pad: self.pad,
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        assert_eq!(x.shape().len(), 4, "conv input must be [b,c,h,w]");
        assert_eq!(x.shape()[1], self.c_in, "conv channel mismatch");
        let (batch, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let geo = self.geometry(h, w);
        let (h_out, w_out) = (geo.h_out(), geo.w_out());
        let old = self.cached.take().map(|c| c.x);
        let mut out = Tensor::zeros(&[batch, self.c_out, h_out, w_out]);
        self.backend.conv2d_forward(
            x.data(),
            self.w.value().data(),
            self.b.as_ref().map(|b| b.value().data()),
            out.data_mut(),
            batch,
            self.c_out,
            &geo,
            &mut self.ws,
        );
        self.cached = Some(Cache {
            x: cache_copy(old, x),
            geo,
            batch,
        });
        out
    }

    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = Cache::for_grad(&self.cached, self.c_out, grad_out);
        let (geo, batch) = (cache.geo, cache.batch);
        let mut dx = Tensor::zeros(&[batch, self.c_in, geo.h, geo.w]);
        // dx_s = col2im(Wᵀ · dY_s)
        self.backend.conv2d_backward_input(
            self.w.value().data(),
            grad_out.data(),
            dx.data_mut(),
            batch,
            self.c_out,
            &geo,
            &mut self.ws,
        );
        dx
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = Cache::for_grad(&self.cached, self.c_out, grad_out);
        let (geo, batch) = (cache.geo, cache.batch);
        // dW += Σ_s dY_s · im2col(x_s)ᵀ
        self.backend.conv2d_backward_weights(
            cache.x.data(),
            grad_out.data(),
            self.w.grad_mut().data_mut(),
            batch,
            self.c_out,
            &geo,
            &mut self.ws,
        );
        if let Some(b) = &mut self.b {
            let n_cols = geo.col_cols();
            let out_elems = self.c_out * n_cols;
            let db = b.grad_mut().data_mut();
            for s in 0..batch {
                let g_s = &grad_out.data()[s * out_elems..(s + 1) * out_elems];
                for c in 0..self.c_out {
                    db[c] += g_s[c * n_cols..(c + 1) * n_cols].iter().sum::<f32>();
                }
            }
        }
        self.backward_input(grad_out)
    }

    fn params(&self) -> Vec<&Param> {
        let mut v = vec![&self.w];
        if let Some(b) = &self.b {
            v.push(b);
        }
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = vec![&mut self.w];
        if let Some(b) = &mut self.b {
            v.push(b);
        }
        v
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::new(
            LayerKind::Conv2d {
                c_in: self.c_in,
                c_out: self.c_out,
                k: self.k,
                stride: self.stride,
                pad: self.pad,
                bias: self.b.is_some(),
            },
            self.in_group,
            self.out_group,
        )
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        self.cached = None;
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
    fn forward_identity_kernel() {
        // A 1x1 conv with identity weights reproduces the input.
        let mut rng = fp_tensor::seeded_rng(0);
        let mut conv = Conv2d::new("c", 2, 2, 1, 1, 0, false, 0, 1, &mut rng);
        conv.params_mut()[0].set_value(Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2, 1, 1]));
        let x = Tensor::rand_uniform(&[1, 2, 3, 3], -1.0, 1.0, &mut rng);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), x.shape());
        for (a, b) in y.data().iter().zip(x.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn forward_known_sum_kernel() {
        // 3x3 all-ones kernel over an all-ones 3x3 input with pad 1:
        // corners see 4 ones, edges 6, center 9.
        let mut rng = fp_tensor::seeded_rng(0);
        let mut conv = Conv2d::new("c", 1, 1, 3, 1, 1, false, 0, 1, &mut rng);
        conv.params_mut()[0].set_value(Tensor::ones(&[1, 1, 3, 3]));
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[4.0, 6.0, 4.0, 6.0, 9.0, 6.0, 4.0, 6.0, 4.0]);
    }

    #[test]
    fn strided_output_shape() {
        let mut rng = fp_tensor::seeded_rng(0);
        let mut conv = Conv2d::new("c", 3, 5, 3, 2, 1, true, 0, 1, &mut rng);
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        assert_eq!(conv.forward(&x, Mode::Eval).shape(), &[2, 5, 4, 4]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = fp_tensor::seeded_rng(5);
        let mut conv = Conv2d::new("c", 2, 3, 3, 1, 1, true, 0, 1, &mut rng);
        check_layer_gradients(&mut conv, &[2, 2, 4, 4], &mut rng);
    }

    #[test]
    fn gradients_with_stride_and_no_bias() {
        let mut rng = fp_tensor::seeded_rng(6);
        let mut conv = Conv2d::new("c", 2, 2, 3, 2, 1, false, 0, 1, &mut rng);
        check_layer_gradients(&mut conv, &[1, 2, 5, 5], &mut rng);
    }

    #[test]
    fn input_gradient_only_route_matches_finite_differences() {
        let mut rng = fp_tensor::seeded_rng(8);
        let mut conv = Conv2d::new("c", 2, 3, 3, 1, 1, true, 0, 1, &mut rng);
        check_layer_input_gradients(&mut conv, &[2, 2, 4, 4], &mut rng);
        let mut strided = Conv2d::new("c", 2, 2, 3, 2, 1, false, 0, 1, &mut rng);
        check_layer_input_gradients(&mut strided, &[1, 2, 5, 5], &mut rng);
    }

    #[test]
    fn bias_gradient_is_spatial_sum() {
        let mut rng = fp_tensor::seeded_rng(7);
        let mut conv = Conv2d::new("c", 1, 1, 1, 1, 0, true, 0, 1, &mut rng);
        let x = Tensor::ones(&[1, 1, 2, 2]);
        conv.forward(&x, Mode::Train);
        conv.backward(&Tensor::ones(&[1, 1, 2, 2]));
        assert_eq!(conv.params()[1].grad().data(), &[4.0]);
    }
}
