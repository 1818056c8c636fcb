//! Pooling layers.

use crate::layer::{Layer, Mode};
use crate::param::Param;
use crate::spec::{LayerKind, LayerSpec};
use fp_tensor::Tensor;

/// Max pooling with a square window (no padding).
///
/// Input `[batch, c, h, w]`; caches the winning index per window for the
/// backward scatter.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    k: usize,
    stride: usize,
    group: usize,
    cache: Option<PoolCache>,
}

#[derive(Debug, Clone)]
struct PoolCache {
    argmax: Vec<usize>,
    in_shape: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with window `k` and stride `stride` in
    /// channel group `group`.
    pub fn new(k: usize, stride: usize, group: usize) -> Self {
        assert!(k > 0 && stride > 0, "pool window/stride must be positive");
        MaxPool2d {
            k,
            stride,
            group,
            cache: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        assert_eq!(x.shape().len(), 4, "pool input must be [b,c,h,w]");
        let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        assert!(h >= self.k && w >= self.k, "pool window larger than input");
        let h_out = (h - self.k) / self.stride + 1;
        let w_out = (w - self.k) / self.stride + 1;
        let mut out = Tensor::zeros(&[b, c, h_out, w_out]);
        let mut argmax = vec![0usize; b * c * h_out * w_out];
        for s in 0..b {
            for ch in 0..c {
                let in_off = (s * c + ch) * h * w;
                let out_off = (s * c + ch) * h_out * w_out;
                for oy in 0..h_out {
                    for ox in 0..w_out {
                        let mut best_idx = in_off + oy * self.stride * w + ox * self.stride;
                        let mut best = x.data()[best_idx];
                        for ky in 0..self.k {
                            for kx in 0..self.k {
                                let idx =
                                    in_off + (oy * self.stride + ky) * w + ox * self.stride + kx;
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
        self.cache = Some(PoolCache {
            argmax,
            in_shape: x.shape().to_vec(),
        });
        out
    }

    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("backward called before forward");
        assert_eq!(grad_out.numel(), cache.argmax.len(), "grad size mismatch");
        let mut dx = Tensor::zeros(&cache.in_shape);
        for (i, &src) in cache.argmax.iter().enumerate() {
            dx.data_mut()[src] += grad_out.data()[i];
        }
        dx
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::same_group(
            LayerKind::MaxPool2d {
                k: self.k,
                stride: self.stride,
            },
            self.group,
        )
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        self.cache = None;
    }
}

/// Global average pooling: `[batch, c, h, w] → [batch, c]`.
#[derive(Debug, Clone)]
pub struct GlobalAvgPool {
    group: usize,
    in_shape: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global-average-pool layer in channel group `group`.
    pub fn new(group: usize) -> Self {
        GlobalAvgPool {
            group,
            in_shape: None,
        }
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        assert_eq!(x.shape().len(), 4, "gap input must be [b,c,h,w]");
        let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let hw = (h * w) as f32;
        let mut out = Tensor::zeros(&[b, c]);
        for s in 0..b {
            for ch in 0..c {
                let plane = &x.data()[(s * c + ch) * h * w..(s * c + ch + 1) * h * w];
                out.data_mut()[s * c + ch] = plane.iter().sum::<f32>() / hw;
            }
        }
        self.in_shape = Some(x.shape().to_vec());
        out
    }

    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        let in_shape = self
            .in_shape
            .as_ref()
            .expect("backward called before forward");
        let (b, c, h, w) = (in_shape[0], in_shape[1], in_shape[2], in_shape[3]);
        assert_eq!(grad_out.shape(), [b, c], "grad shape mismatch");
        let hw = (h * w) as f32;
        let mut dx = Tensor::zeros(in_shape);
        for s in 0..b {
            for ch in 0..c {
                let g = grad_out.data()[s * c + ch] / hw;
                for v in &mut dx.data_mut()[(s * c + ch) * h * w..(s * c + ch + 1) * h * w] {
                    *v = g;
                }
            }
        }
        dx
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::same_group(LayerKind::GlobalAvgPool, self.group)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        self.in_shape = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    #[test]
    fn maxpool_forward_known() {
        let mut p = MaxPool2d::new(2, 2, 0);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        );
        let y = p.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut p = MaxPool2d::new(2, 2, 0);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        p.forward(&x, Mode::Train);
        let dx = p.backward(&Tensor::from_vec(vec![10.0], &[1, 1, 1, 1]));
        assert_eq!(dx.data(), &[0.0, 0.0, 0.0, 10.0]);
    }

    #[test]
    fn maxpool_gradients_match_finite_differences() {
        let mut rng = fp_tensor::seeded_rng(12);
        let mut p = MaxPool2d::new(2, 2, 0);
        check_layer_gradients(&mut p, &[2, 2, 4, 4], &mut rng);
    }

    #[test]
    fn gap_forward_is_mean() {
        let mut g = GlobalAvgPool::new(0);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        assert_eq!(g.forward(&x, Mode::Eval).data(), &[2.5]);
    }

    #[test]
    fn gap_gradients_match_finite_differences() {
        let mut rng = fp_tensor::seeded_rng(13);
        let mut g = GlobalAvgPool::new(0);
        check_layer_gradients(&mut g, &[2, 3, 3, 3], &mut rng);
    }

    #[test]
    #[should_panic(expected = "window larger than input")]
    fn maxpool_rejects_small_input() {
        let mut p = MaxPool2d::new(3, 3, 0);
        p.forward(&Tensor::zeros(&[1, 1, 2, 2]), Mode::Eval);
    }
}
