//! `im2col` / `col2im` lowering for 2-D convolutions.
//!
//! A convolution over a `[c_in, h, w]` image with `k×k` kernels, stride `s`
//! and zero padding `p` is lowered to a matrix multiply:
//!
//! ```text
//! cols:   [c_in·k·k, h_out·w_out]
//! weight: [c_out,    c_in·k·k]
//! out = weight · cols : [c_out, h_out·w_out]
//! ```
//!
//! `col2im` is the exact adjoint of `im2col` (scatter-add), which is what
//! the convolution backward pass needs for input gradients.

use serde::{Deserialize, Serialize};

/// Static geometry of a conv2d application: input/kernel/stride/padding
/// sizes and the derived output size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub c_in: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Kernel size (square kernels).
    pub k: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl Conv2dGeometry {
    /// Output height after the convolution.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn h_out(&self) -> usize {
        assert!(
            self.h + 2 * self.pad >= self.k,
            "kernel {} larger than padded input {}",
            self.k,
            self.h + 2 * self.pad
        );
        (self.h + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Output width after the convolution.
    pub fn w_out(&self) -> usize {
        assert!(
            self.w + 2 * self.pad >= self.k,
            "kernel {} larger than padded input {}",
            self.k,
            self.w + 2 * self.pad
        );
        (self.w + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Rows of the lowered `cols` matrix: `c_in · k · k`.
    pub fn col_rows(&self) -> usize {
        self.c_in * self.k * self.k
    }

    /// Columns of the lowered `cols` matrix: `h_out · w_out`.
    pub fn col_cols(&self) -> usize {
        self.h_out() * self.w_out()
    }
}

/// Lowers one image `[c_in, h, w]` into the `cols` matrix
/// `[c_in·k·k, h_out·w_out]` (row-major, written into `cols`).
///
/// # Panics
///
/// Panics if the buffer sizes disagree with `geo`.
pub fn im2col(img: &[f32], geo: &Conv2dGeometry, cols: &mut [f32]) {
    assert_eq!(img.len(), geo.c_in * geo.h * geo.w, "image buffer size");
    assert_eq!(
        cols.len(),
        geo.col_rows() * geo.col_cols(),
        "cols buffer size"
    );
    let (h_out, w_out) = (geo.h_out(), geo.w_out());
    let n_cols = h_out * w_out;
    for row in 0..geo.col_rows() {
        let c = row / (geo.k * geo.k);
        let ky = row / geo.k % geo.k;
        let kx = row % geo.k;
        let img_c = &img[c * geo.h * geo.w..(c + 1) * geo.h * geo.w];
        let out_row = &mut cols[row * n_cols..(row + 1) * n_cols];
        for oy in 0..h_out {
            let iy = (oy * geo.stride + ky) as isize - geo.pad as isize;
            if iy < 0 || iy >= geo.h as isize {
                for ox in 0..w_out {
                    out_row[oy * w_out + ox] = 0.0;
                }
                continue;
            }
            let img_row = &img_c[iy as usize * geo.w..(iy as usize + 1) * geo.w];
            for ox in 0..w_out {
                let ix = (ox * geo.stride + kx) as isize - geo.pad as isize;
                out_row[oy * w_out + ox] = if ix < 0 || ix >= geo.w as isize {
                    0.0
                } else {
                    img_row[ix as usize]
                };
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatter-adds a `cols`-shaped gradient back into an
/// image-shaped gradient buffer (`img_grad` is accumulated into, not
/// overwritten).
///
/// # Panics
///
/// Panics if the buffer sizes disagree with `geo`.
pub fn col2im(cols: &[f32], geo: &Conv2dGeometry, img_grad: &mut [f32]) {
    assert_eq!(
        img_grad.len(),
        geo.c_in * geo.h * geo.w,
        "image buffer size"
    );
    assert_eq!(
        cols.len(),
        geo.col_rows() * geo.col_cols(),
        "cols buffer size"
    );
    let (h_out, w_out) = (geo.h_out(), geo.w_out());
    let n_cols = h_out * w_out;
    for c in 0..geo.c_in {
        let img_c = &mut img_grad[c * geo.h * geo.w..(c + 1) * geo.h * geo.w];
        for ky in 0..geo.k {
            for kx in 0..geo.k {
                let row = (c * geo.k + ky) * geo.k + kx;
                let col_row = &cols[row * n_cols..(row + 1) * n_cols];
                for oy in 0..h_out {
                    let iy = (oy * geo.stride + ky) as isize - geo.pad as isize;
                    if iy < 0 || iy >= geo.h as isize {
                        continue;
                    }
                    for ox in 0..w_out {
                        let ix = (ox * geo.stride + kx) as isize - geo.pad as isize;
                        if ix < 0 || ix >= geo.w as isize {
                            continue;
                        }
                        img_c[iy as usize * geo.w + ix as usize] += col_row[oy * w_out + ox];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GEO: Conv2dGeometry = Conv2dGeometry {
        c_in: 2,
        h: 4,
        w: 4,
        k: 3,
        stride: 1,
        pad: 1,
    };

    #[test]
    fn geometry_output_sizes() {
        assert_eq!(GEO.h_out(), 4);
        assert_eq!(GEO.w_out(), 4);
        let strided = Conv2dGeometry { stride: 2, ..GEO };
        assert_eq!(strided.h_out(), 2);
        let valid = Conv2dGeometry { pad: 0, ..GEO };
        assert_eq!(valid.h_out(), 2);
    }

    #[test]
    fn im2col_identity_kernel_center() {
        // With a 3x3 kernel and pad 1, the center tap (ky=kx=1) reproduces
        // the input image exactly.
        let img: Vec<f32> = (0..32).map(|x| x as f32).collect();
        let mut cols = vec![0.0; GEO.col_rows() * GEO.col_cols()];
        im2col(&img, &GEO, &mut cols);
        let n = GEO.col_cols();
        for c in 0..GEO.c_in {
            let row = (c * 3 + 1) * 3 + 1; // center tap of channel c
            assert_eq!(&cols[row * n..(row + 1) * n], &img[c * 16..(c + 1) * 16]);
        }
    }

    #[test]
    fn im2col_zero_pads_borders() {
        let img = vec![1.0; 32];
        let mut cols = vec![9.0; GEO.col_rows() * GEO.col_cols()];
        im2col(&img, &GEO, &mut cols);
        // Top-left tap (ky=0,kx=0) of the (0,0) output position reads the
        // padded region → 0.
        assert_eq!(cols[0], 0.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining
        // property of an adjoint, checked with pseudo-random vectors.
        let geo = Conv2dGeometry {
            c_in: 3,
            h: 5,
            w: 4,
            k: 3,
            stride: 2,
            pad: 1,
        };
        let x: Vec<f32> = (0..geo.c_in * geo.h * geo.w)
            .map(|i| ((i * 2654435761) % 97) as f32 / 97.0 - 0.5)
            .collect();
        let y: Vec<f32> = (0..geo.col_rows() * geo.col_cols())
            .map(|i| ((i * 40503) % 89) as f32 / 89.0 - 0.5)
            .collect();
        let mut ax = vec![0.0; y.len()];
        im2col(&x, &geo, &mut ax);
        let mut aty = vec![0.0; x.len()];
        col2im(&y, &geo, &mut aty);
        let lhs: f32 = ax.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }
}
