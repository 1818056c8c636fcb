//! Pooling layers.

use super::{planes, recycle};
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
    /// Flat input index of each output's winner.
    argmax: Vec<u32>,
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

/// Panics unless `u32` argmax indices can address `n` input elements.
fn check_argmax_limit(n: usize) {
    assert!(
        u32::try_from(n).is_ok(),
        "MaxPool2d field `argmax`: {n} input elements overflow u32 indices"
    );
}

/// The winner of one window: the first element, then every other one in
/// `(ky, kx)` order replacing it only when strictly greater — so the
/// first of tied maxima wins and a NaN wins only from the first slot.
fn window_max(first: (f32, u32), rest: impl IntoIterator<Item = (f32, u32)>) -> (f32, u32) {
    rest.into_iter().fold(
        first,
        |best, cand| if cand.0 > best.0 { cand } else { best },
    )
}

/// One output row of the 2×2, stride-2 window: `top` / `bottom` are its
/// two input rows and `at` the flat input index of `top[0]`. Kept out of
/// line so the compiler knows the four slices are disjoint: it then
/// vectorizes rows of 4 outputs and up with no run-time overlap checks
/// (inlined, it fell back to scalar code below 8).
#[inline(never)]
fn row_2x2(top: &[f32], bottom: &[f32], out: &mut [f32], argmax: &mut [u32], at: u32) {
    let w = top.len() as u32;
    let windows = top.chunks_exact(2).zip(bottom.chunks_exact(2));
    for ((ox, (o, a)), (t, b)) in out.iter_mut().zip(argmax).enumerate().zip(windows) {
        let i = at + 2 * ox as u32;
        (*o, *a) = window_max((t[0], i), [(t[1], i + 1), (b[0], i + w), (b[1], i + w + 1)]);
    }
}

impl Layer for MaxPool2d {
    /// Row-sliced: each output row reads its `k` input rows as slices and
    /// writes its slice of the output and of the recycled `argmax` buffer
    /// (two outputs per window, so both are sized first rather than
    /// pushed to). The `k = stride = 2` window every model in the zoo uses
    /// has its own row loop; both make the parent's comparisons in the
    /// parent's order (its `x > x` self-comparison of the first slot is
    /// always false and is skipped).
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        assert_eq!(x.shape().len(), 4, "pool input must be [b,c,h,w]");
        let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (k, stride) = (self.k, self.stride);
        assert!(h >= k && w >= k, "pool window larger than input");
        // Every index below is < numel, so u32 arithmetic cannot overflow.
        check_argmax_limit(x.numel());
        let h_out = (h - k) / stride + 1;
        let w_out = (w - k) / stride + 1;
        let n_out = b * c * h_out * w_out;
        let mut argmax = recycle(self.cache.take().map(|c| c.argmax), n_out);
        argmax.resize(n_out, 0);
        let mut out = vec![0.0f32; n_out];
        let mut out_rows = out
            .chunks_exact_mut(w_out)
            .zip(argmax.chunks_exact_mut(w_out));
        for (p, plane) in planes(x.data(), h * w).enumerate() {
            let base = (p * h * w) as u32;
            for oy in 0..h_out {
                let (o_row, a_row) = out_rows.next().expect("one output row per window row");
                let row0 = oy * stride * w;
                if (k, stride) == (2, 2) {
                    let (top, bottom) = plane[row0..row0 + 2 * w].split_at(w);
                    row_2x2(top, bottom, o_row, a_row, base + row0 as u32);
                    continue;
                }
                for (ox, (o, a)) in o_row.iter_mut().zip(a_row).enumerate() {
                    let x0 = row0 + ox * stride;
                    let i = base + x0 as u32;
                    let taps = (0..k).flat_map(|ky| {
                        let row = &plane[x0 + ky * w..][..k];
                        (0..k).map(move |kx| (row[kx], i + (ky * w + kx) as u32))
                    });
                    (*o, *a) = window_max((plane[x0], i), taps.skip(1));
                }
            }
        }
        self.cache = Some(PoolCache {
            argmax,
            in_shape: x.shape().to_vec(),
        });
        Tensor::from_vec(out, &[b, c, h_out, w_out])
    }

    /// Scatter-adds into a zeroed `dx` (so a `-0.0` gradient lands as
    /// `+0.0`, as in the parent), in output order.
    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("backward called before forward");
        assert_eq!(grad_out.numel(), cache.argmax.len(), "grad size mismatch");
        let mut dx = Tensor::zeros(&cache.in_shape);
        let d = dx.data_mut();
        for (&src, &g) in cache.argmax.iter().zip(grad_out.data()) {
            d[src as usize] += g;
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
    #[should_panic(expected = "MaxPool2d field `argmax`: 4294967296 input elements")]
    fn layer_kernel_argmax_limit_names_layer_and_field() {
        check_argmax_limit(u32::MAX as usize);
        check_argmax_limit(u32::MAX as usize + 1);
    }

    #[test]
    #[should_panic(expected = "window larger than input")]
    fn maxpool_rejects_small_input() {
        let mut p = MaxPool2d::new(3, 3, 0);
        p.forward(&Tensor::zeros(&[1, 1, 2, 2]), Mode::Eval);
    }
}
