//! The dX-only route's `BatchNorm2d → ReLU → MaxPool2d(2, 2)` run.
//!
//! Unfused, an attack pass through these three layers writes four
//! full-size buffers (`x̂`, the BN output, the ReLU mask and its output)
//! and reads them back, yet the input gradient needs only the pooled
//! winners and one factor per channel. On [`Layer::forward_dx_only`] a
//! [`crate::Sequential`] runs each such run of its children as one
//! [`FusedRun`]: one pass forward, one pass back, every output bit for
//! bit the three layers' (`layer_kernel` pins it against their parent
//! bodies).

use super::bn::inv_std;
use super::pool::{check_argmax_limit, row_2x2};
use super::{planes, recycle};
use crate::layer::Layer;
use crate::spec::LayerKind;
use fp_tensor::Tensor;

/// Children in a fused run.
pub(crate) const LEN: usize = 3;

/// A `BatchNorm2d → ReLU → MaxPool2d(2, 2)` run of a `Sequential`'s
/// children, starting at child `at`, with its own cache slot.
#[derive(Debug, Clone)]
pub(crate) struct FusedRun {
    pub(crate) at: usize,
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    /// The pooled output: `> 0` exactly where the ReLU mask is set at
    /// the window winner.
    out: Vec<f32>,
    /// Flat input index of each output's winner.
    argmax: Vec<u32>,
    /// `γ·inv_std` per channel, the BN's `Eval` dX factor.
    k: Vec<f32>,
    in_shape: [usize; 4],
}

/// The fused runs of `layers`: left to right, non-overlapping, found
/// from the children's specs (once per `Sequential`, not per call).
pub(crate) fn find_runs(layers: &[Box<dyn Layer>]) -> Vec<FusedRun> {
    let kinds: Vec<LayerKind> = layers.iter().map(|l| l.spec().kind).collect();
    let mut runs = Vec::new();
    let mut at = 0;
    while at + LEN <= kinds.len() {
        if matches!(
            kinds[at..at + LEN],
            [
                LayerKind::BatchNorm2d { .. },
                LayerKind::Relu,
                LayerKind::MaxPool2d { k: 2, stride: 2 }
            ]
        ) {
            runs.push(FusedRun { at, cache: None });
            at += LEN;
        } else {
            at += 1;
        }
    }
    runs
}

impl FusedRun {
    /// `pool(relu(bn(x)))` with `bn` in `Eval` mode, bit for bit, in one
    /// pass: per element `r = (γ·((v − μ)·inv_std) + β).max(0.0)` — the
    /// BN's two roundings, never a fused multiply-add, then the ReLU's
    /// max — into a one-plane scratch, whose 2×2 winners MaxPool's own
    /// `row_2x2` takes (strict `>` in `(ky, kx)` order). Caches only the
    /// pooled output, the `u32` argmax and `γ·inv_std`, in buffers
    /// recycled from this run's own slot.
    pub(crate) fn forward(&mut self, bn: &dyn Layer, x: &Tensor) -> Tensor {
        assert_eq!(x.shape().len(), 4, "batchnorm input must be [b,c,h,w]");
        let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (mean, var) = bn.running_stats()[0];
        let params = bn.params();
        let (gamma, beta) = (params[0].value().data(), params[1].value().data());
        assert_eq!(c, gamma.len(), "bn channel mismatch");
        assert!(h >= 2 && w >= 2, "pool window larger than input");
        // Every index below is < numel, so u32 arithmetic cannot overflow.
        check_argmax_limit(x.numel());
        let (h_out, w_out) = (h / 2, w / 2);
        let n_out = b * c * h_out * w_out;
        let inv_std = inv_std(var.data());
        let (mean, old) = (mean.data(), self.cache.take());
        let (old_out, old_argmax) = old.map(|c| (c.out, c.argmax)).unzip();
        let mut argmax = recycle(old_argmax, n_out);
        argmax.resize(n_out, 0);
        let mut out = vec![0.0f32; n_out];
        let mut r = vec![0.0f32; h * w];
        let mut out_rows = out
            .chunks_exact_mut(w_out)
            .zip(argmax.chunks_exact_mut(w_out));
        for (p, (plane, ch)) in planes(x.data(), h * w).zip((0..c).cycle()).enumerate() {
            let (mu, k, g, bt) = (mean[ch], inv_std[ch], gamma[ch], beta[ch]);
            for (r, &v) in r.iter_mut().zip(plane) {
                *r = (g * ((v - mu) * k) + bt).max(0.0);
            }
            let base = (p * h * w) as u32;
            for row0 in (0..h_out).map(|oy| 2 * oy * w) {
                let (top, bottom) = r[row0..row0 + 2 * w].split_at(w);
                let (o_row, a_row) = out_rows.next().expect("one output row per window row");
                row_2x2(top, bottom, o_row, a_row, base + row0 as u32);
            }
        }
        let mut cached_out = recycle(old_out, n_out);
        cached_out.extend_from_slice(&out);
        self.cache = Some(Cache {
            out: cached_out,
            argmax,
            k: gamma.iter().zip(&inv_std).map(|(&g, &s)| g * s).collect(),
            in_shape: [b, c, h, w],
        });
        Tensor::from_vec(out, &[b, c, h_out, w_out])
    }

    /// The run's dX: `bn.backward_input(relu.backward_input(
    /// pool.backward_input(g)))` of an `Eval` forward, bit for bit, plane
    /// by plane: each plane is filled with `0.0·k`, then each winner is
    /// overwritten with `(if out > 0 { 0.0 + g } else { 0.0 })·k`:
    /// the pool scatters into a zeroed `dx` (`0.0 + g` turns a `-0.0`
    /// into `+0.0`), `out > 0` is the ReLU mask at the winner (`out =
    /// y.max(0.0)` is positive exactly when `y` is), then the BN's `·k`.
    /// Every other element gets `0.0·k`, which is `-0.0` when `k < 0` and
    /// NaN when `k` is not finite.
    pub(crate) fn backward_input(&self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("backward called before forward");
        assert_eq!(grad_out.numel(), cache.argmax.len(), "grad size mismatch");
        let [b, c, h, w] = cache.in_shape;
        let (hw, per) = (h * w, (h / 2) * (w / 2));
        let mut dx = Vec::with_capacity(b * c * hw);
        let outputs = cache
            .argmax
            .chunks_exact(per)
            .zip(cache.out.chunks_exact(per))
            .zip(grad_out.data().chunks_exact(per));
        for (((argmax, out), g), &k) in outputs.zip(cache.k.iter().cycle()) {
            let base = dx.len();
            dx.resize(base + hw, 0.0 * k);
            let plane = &mut dx[base..];
            for ((&src, &o), &g) in argmax.iter().zip(out).zip(g) {
                // `if o > 0.0 { 0.0 + g } else { 0.0 }` as a bit mask: a
                // branch on the ReLU mask mispredicts on every other window.
                let v = (0.0 + g).to_bits() & u32::from(o > 0.0).wrapping_neg();
                plane[src as usize - base] = f32::from_bits(v) * k;
            }
        }
        Tensor::from_vec(dx, &cache.in_shape)
    }

    /// The cached winners' flat input indices.
    #[cfg(test)]
    pub(crate) fn argmax(&self) -> &[u32] {
        &self.cache.as_ref().expect("forward ran").argmax
    }

    /// Frees the cache slot.
    pub(crate) fn clear_cache(&mut self) {
        self.cache = None;
    }
}
