//! The broadcast weight gradient: the fold-group staging and its offset
//! tables, and the kernel over them (module doc of [`super`], "Broadcast
//! weight gradient").
//!
//! Safety contract: every `base[j] + row_off[p]` lies in the staging
//! buffer (the tables are built from the geometry through checked `u32`
//! conversions), `gt` and `dwt` hold whole `ld`-float rows of channel
//! vectors, and a kernel instance runs on an ISA the CPU runs (`per_isa!`
//! asserts it).

use super::gemm::MAX_NR;
use super::lanes::{transpose, Lanes, Portable16, LANES};
#[cfg(target_arch = "x86_64")]
use super::lanes::{Ymm2, Zmm};
use super::{Ws, WS};
use crate::isa::Isa;
use crate::{backend::for_row_chunks, im2col::Conv2dGeometry};

// ------------------------------------------------------------ conv staging

/// Folded reduction length a weight-gradient fold group aims for: four of
/// the widest GEMM panels. A group's staging and transposed gradient —
/// both proportional to it — stay in L2.
const FOLD_COLS: usize = 4 * MAX_NR;

/// `(rows, n_cols, img_len, out_len, g)` of a staged conv call.
type ConvShape = (usize, usize, usize, usize, usize);

/// The shape of a staged conv call (module doc, "Broadcast weight
/// gradient"), `None` for an empty problem: the per-sample `cols` matrix
/// is `rows × n_cols`, a sample is `img_len` floats in and `out_len` out,
/// and a fold group takes `g` samples — as many as bring the folded
/// reduction (`g·n_cols`) to [`FOLD_COLS`], fewer, down to one, when the
/// group's padded staging would outgrow the `u32` offset tables.
pub(super) fn conv_shape(batch: usize, c_out: usize, geo: &Conv2dGeometry) -> Option<ConvShape> {
    let (rows, n_cols) = (geo.col_rows(), geo.col_cols());
    let (img_len, out_len) = (geo.c_in * geo.h * geo.w, c_out * n_cols);
    if batch == 0 || rows == 0 || out_len == 0 {
        return None;
    }
    let padded_len = geo.c_in * (geo.h + 2 * geo.pad) * (geo.w + 2 * geo.pad);
    assert!(
        padded_len <= u32::MAX as usize,
        "conv lowering: one sample spans {padded_len} floats (padded \
         c_in·(h+2·pad)·(w+2·pad)), beyond the u32 offset tables"
    );
    let g = (FOLD_COLS / n_cols).min(u32::MAX as usize / padded_len);
    Some((rows, n_cols, img_len, out_len, g.clamp(1, batch)))
}

/// One thread's staging for a conv call: one fold group's zero-padded
/// images and the offset tables (sample-major: a shorter last group uses
/// a prefix).
#[derive(Default)]
pub(super) struct Staging {
    /// `[g, c_in, h + 2·pad, w + 2·pad]`, borders zero.
    pub(super) buf: Vec<f32>,
    /// Per folded output column `(s, oy, ox)`: its patch's corner in `buf`.
    pub(super) base: Vec<u32>,
    /// Per im2col row `(c, ky, kx)`: that tap's offset from the corner.
    pub(super) row_off: Vec<u32>,
}

/// Refills an offset table through checked `usize → u32` conversions.
pub(super) fn fill_offsets(tab: &mut Vec<u32>, field: &str, offsets: impl Iterator<Item = usize>) {
    let checked = |v| {
        u32::try_from(v)
            .unwrap_or_else(|_| panic!("conv lowering: `{field}` offset {v} exceeds u32"))
    };
    tab.clear();
    tab.extend(offsets.map(checked));
}

impl Staging {
    /// Zeroes the staging and builds the tables for groups of `g`.
    pub(super) fn prepare(&mut self, geo: &Conv2dGeometry, g: usize) {
        let (hp, wp, w_out) = (geo.h + 2 * geo.pad, geo.w + 2 * geo.pad, geo.w_out());
        let (k, s, n_cols, padded_len) = (geo.k, geo.stride, geo.col_cols(), geo.c_in * hp * wp);
        let corner = |(i, q)| i * padded_len + (q / w_out * wp + q % w_out) * s;
        let cols = (0..g).flat_map(|i| (0..n_cols).map(move |q| (i, q)));
        fill_offsets(&mut self.base, "base", cols.map(corner));
        let tap = |r| (r / (k * k) * hp + r / k % k) * wp + r % k;
        fill_offsets(&mut self.row_off, "row_off", (0..geo.col_rows()).map(tap));
        self.buf.clear();
        self.buf.resize(g * padded_len, 0.0);
    }

    /// Copies the dense `[n, c_in, h, w]` batch `imgs` into the interiors
    /// of `buf`, row by row.
    pub(super) fn stage(&mut self, geo: &Conv2dGeometry, imgs: &[f32]) {
        let wp = geo.w + 2 * geo.pad;
        let mut rows = imgs.chunks_exact(geo.w);
        for plane in self.buf.chunks_exact_mut((geo.h + 2 * geo.pad) * wp) {
            for y in 0..geo.h {
                let Some(row) = rows.next() else {
                    return;
                };
                let at = (y + geo.pad) * wp + geo.pad;
                plane[at..at + geo.w].copy_from_slice(row);
            }
        }
    }
}

// ------------------------------------------------ broadcast weight gradient

/// One fold group of the broadcast weight gradient: the staged images,
/// each folded column's patch corner and each tap's offset from it (the
/// [`Staging`] tables), and the channel-innermost operands — `gt[j][co]`
/// and `dwt[p][co]`, rows `ld` floats apart.
#[derive(Clone, Copy)]
pub(super) struct DwKernel<'a> {
    pub(super) buf: &'a [f32],
    pub(super) base: &'a [u32],
    pub(super) row_off: &'a [u32],
    pub(super) ld: usize,
}

/// Taps `p0 .. p0+P` of `NV` channel vectors: from `dwt`, for each
/// folded column `j` ascending, `acc = fma(gt[j], buf[base[j] +
/// row_off[p]], acc)` — the image factor broadcast from the staging in
/// place, a padding tap reading the border's `+0.0`.
///
/// # Safety
///
/// `gt` / `dwt` must point at the tile's first channel vector of `k.ld`-
/// float rows (`k.base.len()` of them in `gt`, `p0 + P` in `dwt`), every
/// table offset must lie in `k.buf`, and the CPU must support `L`.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // index loops mirror the register tile
unsafe fn dw_tile<L: Lanes, const P: usize, const NV: usize>(
    k: DwKernel,
    gt: *const f32,
    dwt: *mut f32,
    p0: usize,
) {
    let all = L::mask(u16::MAX);
    let mut tap = [k.buf.as_ptr(); P];
    for t in 0..P {
        tap[t] = k.buf[k.row_off[p0 + t] as usize..].as_ptr();
    }
    let mut acc = [[L::zero(); NV]; P];
    for (t, row) in acc.iter_mut().enumerate() {
        for v in 0..NV {
            // SAFETY: row `p0 + t` of `dwt`, vector `v` (the contract).
            row[v] = unsafe { L::load(dwt.wrapping_add((p0 + t) * k.ld + v * LANES), all) };
        }
    }
    for (j, &b) in k.base.iter().enumerate() {
        let mut g = [L::zero(); NV];
        for v in 0..NV {
            // SAFETY: row `j` of `gt`, vector `v`.
            g[v] = unsafe { L::load(gt.wrapping_add(j * k.ld + v * LANES), all) };
        }
        for (t, row) in acc.iter_mut().enumerate() {
            // SAFETY: `base[j] + row_off[p0 + t]` lies in `buf`.
            let xv = unsafe { L::splat(tap[t].wrapping_add(b as usize)) };
            for v in 0..NV {
                row[v] = L::fma(g[v], xv, row[v]);
            }
        }
    }
    for (t, row) in acc.iter().enumerate() {
        for v in 0..NV {
            // SAFETY: as the loads above.
            unsafe { L::store(dwt.wrapping_add((p0 + t) * k.ld + v * LANES), all, row[v]) };
        }
    }
}

/// Every tap of `NV` channel vectors: tiles of `P` taps, the tail in
/// pieces of 8, 4, 2, 1.
///
/// # Safety
///
/// As [`dw_tile`], for `dwt` rows `0 .. row_off.len()`.
#[inline(always)]
unsafe fn dw_taps<L: Lanes, const P: usize, const NV: usize>(
    k: DwKernel,
    gt: *const f32,
    dwt: *mut f32,
) {
    let rows = k.row_off.len();
    let mut p0 = 0;
    while p0 < rows {
        let left = rows - p0;
        // SAFETY: each tile takes at most the taps that remain.
        p0 += unsafe {
            if left >= P {
                dw_tile::<L, P, NV>(k, gt, dwt, p0);
                P
            } else if left >= 8 {
                dw_tile::<L, 8, NV>(k, gt, dwt, p0);
                8
            } else if left >= 4 {
                dw_tile::<L, 4, NV>(k, gt, dwt, p0);
                4
            } else if left >= 2 {
                dw_tile::<L, 2, NV>(k, gt, dwt, p0);
                2
            } else {
                dw_tile::<L, 1, NV>(k, gt, dwt, p0);
                1
            }
        };
    }
}

/// All `k.ld / LANES` channel vectors, up to `NV` abreast: `P1`, `P2` and
/// `P3` taps per tile at one, two and three vectors.
///
/// # Safety
///
/// As [`dw_tile`], for every vector of the rows.
#[inline(always)]
unsafe fn dw_vectors<
    L: Lanes,
    const NV: usize,
    const P1: usize,
    const P2: usize,
    const P3: usize,
>(
    k: DwKernel,
    gt: *const f32,
    dwt: *mut f32,
) {
    let vectors = k.ld / LANES;
    let mut v0 = 0;
    while v0 < vectors {
        let (gt, dwt) = (gt.wrapping_add(v0 * LANES), dwt.wrapping_add(v0 * LANES));
        // Four vectors go two and two rather than three and one.
        let nv = match (vectors - v0).min(NV) {
            3 if vectors - v0 == 4 => 2,
            n => n,
        };
        // SAFETY: vectors `v0 .. v0 + nv` exist.
        unsafe {
            match nv {
                1 => dw_taps::<L, P1, 1>(k, gt, dwt),
                2 => dw_taps::<L, P2, 2>(k, gt, dwt),
                _ => dw_taps::<L, P3, 3>(k, gt, dwt),
            }
        }
        v0 += nv;
    }
}

crate::per_isa! {
    /// [`dw_vectors`] on `isa`.
    ///
    /// # Safety
    ///
    /// As [`dw_tile`], for every vector of `k.ld` and every tap.
    pub(super) unsafe fn dw_kernel(isa: Isa, k: DwKernel<'_>, gt: *const f32, dwt: *mut f32) {
        // One vector: 24 accumulators + 1 gradient vector; two: 24 + 2;
        // three: 27 + 3 of 32 zmm. The image factors are memory operands of
        // the FMAs.
        avx512 => unsafe { dw_vectors::<Zmm, 3, 9, 9, 7>(k, gt, dwt) },
        // One vector of two halves: 12 accumulators + 2 + 1 broadcast of 16
        // ymm.
        avx2 => unsafe { dw_vectors::<Ymm2, 1, 6, 6, 6>(k, gt, dwt) },
        base => unsafe { dw_vectors::<Portable16, 1, 4, 4, 4>(k, gt, dwt) },
    }
}

/// Broadcast weight gradient (module doc, "Broadcast weight gradient"):
/// threads split the output channels; each keeps its channels' `dw`
/// transposed (`dwt[p][co]`, channels padded to whole vectors) for the
/// whole call and, per fold group, stages the
/// images, transposes `grad` to `gt[j][co]` and runs [`DwKernel`]. Groups
/// run in sample order, so every `dw` element's chain is the canonical
/// `s`-major, `(oy, ox)`-ascending one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_backward_weights_broadcast(
    isa: Isa,
    x: &[f32],
    grad: &[f32],
    dw: &mut [f32],
    batch: usize,
    c_out: usize,
    geo: &Conv2dGeometry,
    threads: usize,
) {
    let Some((rows, n_cols, img_len, out_len, g)) = conv_shape(batch, c_out, geo) else {
        return;
    };
    for_row_chunks(dw, c_out, rows, threads, |r0, r1, chunk| {
        WS.with(|tws| {
            let Ws { st, lanes, .. } = &mut *tws.borrow_mut();
            st.prepare(geo, g);
            // Lanes past `r1 - r0` are transposed in as zeros: computed,
            // never copied back.
            let ld = (r1 - r0).next_multiple_of(LANES);
            let len = (rows + g * n_cols) * ld;
            if lanes.len() < len {
                lanes.resize(len, 0.0);
            }
            let (dwt, gt) = lanes[..len].split_at_mut(rows * ld);
            transpose(isa, chunk, rows, dwt, ld, r1 - r0, rows, ld);
            for (x_g, g_g) in x.chunks(g * img_len).zip(grad.chunks(g * out_len)) {
                let nn = g_g.len() / out_len * n_cols;
                st.stage(geo, x_g);
                // `gt[j][co]` from `grad[s][r0 + co][q]`, `j = (s, q)`.
                for (g_s, gt_s) in g_g
                    .chunks_exact(out_len)
                    .zip(gt.chunks_exact_mut(n_cols * ld))
                {
                    transpose(
                        isa,
                        &g_s[r0 * n_cols..],
                        n_cols,
                        gt_s,
                        ld,
                        r1 - r0,
                        n_cols,
                        ld,
                    );
                }
                let k = DwKernel {
                    buf: &st.buf,
                    base: &st.base[..nn],
                    row_off: &st.row_off,
                    ld,
                };
                // SAFETY: `gt` holds `nn` rows and `dwt` `rows` rows of `ld`
                // floats; every corner plus tap offset lies in the staging;
                // the dispatcher checks `isa`.
                unsafe { dw_kernel(isa, k, gt.as_ptr(), dwt.as_mut_ptr()) };
            }
            transpose(isa, dwt, ld, chunk, rows, rows, r1 - r0, rows);
        })
    });
}
