//! The direct stride-1 kernels: forward and input gradient over one
//! [`DirectLayout`] (module doc of [`super`], "Direct input gradient" and
//! "Direct forward").
//!
//! Safety contract: a kernel instance dereferences only the lanes a
//! [`DirectLayout`] names — every destination lane inside the destination
//! planes, every unmasked tap lane inside the source planes — and runs on
//! an ISA the CPU runs (`per_isa!` asserts it). Offsets of masked-off lanes
//! are applied with `wrapping_*` and never read.

use super::lanes::{Lanes, Portable16, LANES};
#[cfg(target_arch = "x86_64")]
use super::lanes::{Ymm2, Zmm};
use super::WS;
use crate::isa::Isa;
use crate::{backend::for_row_chunks, im2col::Conv2dGeometry};

/// Which way a direct kernel's taps point. A kernel's vectors sit in its
/// *destination* planes and each tap reads its *source* planes: output
/// pixel `(y, x)` of the forward reads input `(y + ky − pad, x + kx −
/// pad)`, input pixel `(y, x)` of the input gradient reads the output
/// gradient at `(y + pad − ky, x + pad − kx)` — the same tap, its offset
/// negated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dir {
    /// Destination `out` (`c_out` planes of `h_out × w_out`), source `x`.
    Forward,
    /// Destination `dx` (`c_in` planes of `h × w`), source `grad`.
    Backward,
}

impl Dir {
    /// `((h, w), channels)` of the destination and of the source planes.
    fn planes(self, geo: &Conv2dGeometry, c_out: usize) -> [((usize, usize), usize); 2] {
        let image = ((geo.h, geo.w), geo.c_in);
        let output = ((geo.h_out(), geo.w_out()), c_out);
        match self {
            Dir::Forward => [output, image],
            Dir::Backward => [image, output],
        }
    }

    /// The tap's signed shift along one axis: `kk − pad` or `pad − kk`.
    fn shift(self, kk: usize, pad: usize) -> isize {
        let d = kk as isize - pad as isize;
        match self {
            Dir::Forward => d,
            Dir::Backward => -d,
        }
    }

    /// The source row (column) that destination row (column) `i` reads
    /// through kernel row (column) `kk`, if it is in `0..n`.
    fn reaches(self, i: usize, kk: usize, pad: usize, n: usize) -> Option<usize> {
        usize::try_from(i as isize + self.shift(kk, pad))
            .ok()
            .filter(|&o| o < n)
    }
}

/// Bits of lanes `0..n`.
fn lane_bits(n: usize) -> u16 {
    u16::MAX >> (LANES - n.min(LANES))
}

/// Where a direct kernel's vectors sit and what each tap reads — one
/// layout for both [`Dir`]ections. Vector `j` of a call is slot `j %
/// at.len()` of sample `j / at.len()`: it starts `s·d_stride + at[slot].0`
/// floats into the destination (channels `dcs` apart) and computes the
/// lanes set in `at[slot].1`; for tap `t = (ky, kx)` its lane `l` reads
/// source element `s·s_stride + taps[slot·k² + t].0 + l` (channels `scs`
/// apart) on the lanes set in `taps[slot·k² + t].1` — those whose source
/// pixel exists; the others are zero padding. Offsets of masked-off lanes
/// may fall outside the buffers, so they are applied with
/// `wrapping_offset` and never read. Consecutive vectors share their masks
/// in runs of `run`; a register tile never straddles two runs.
struct DirectLayout {
    at: Vec<(usize, u16)>,
    taps: Vec<(isize, u16)>,
    run: usize,
    dcs: usize,
    scs: usize,
    d_stride: usize,
    s_stride: usize,
}

/// `(ky, kx)` in tap order.
fn taps(k: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..k).flat_map(move |ky| (0..k).map(move |kx| (ky, kx)))
}

impl DirectLayout {
    /// Vectors over NCHW destination planes, read in place: 16-element
    /// runs of the whole plane when the source rows are as wide (one tap
    /// offset then serves every lane), of each destination row otherwise.
    fn in_place(geo: &Conv2dGeometry, c_out: usize, dir: Dir) -> Self {
        let [((hd, wd), cd), ((hs, ws), cs)] = dir.planes(geo, c_out);
        let (k, pad) = (geo.k, geo.pad);
        let starts: Vec<(usize, usize)> = if wd == ws {
            (0..hd * wd)
                .step_by(LANES)
                .map(|i| (i, LANES.min(hd * wd - i)))
                .collect()
        } else {
            (0..hd)
                .flat_map(|y| {
                    (0..wd)
                        .step_by(LANES)
                        .map(move |x| (y * wd + x, LANES.min(wd - x)))
                })
                .collect()
        };
        // A lane's tap is valid iff its row and its column both reach a
        // source pixel, so a run's masks are `rows[ky] & cols[kx]`.
        let mut taps_of = Vec::with_capacity(starts.len() * k * k);
        let (mut rows, mut cols) = (vec![0u16; k], vec![0u16; k]);
        for &(i0, n) in &starts {
            let (y0, x0) = (i0 / wd, i0 % wd);
            rows.fill(0);
            cols.fill(0);
            let (mut y, mut x) = (y0, x0);
            for l in 0..n {
                for kk in 0..k {
                    rows[kk] |= u16::from(dir.reaches(y, kk, pad, hs).is_some()) << l;
                    cols[kk] |= u16::from(dir.reaches(x, kk, pad, ws).is_some()) << l;
                }
                (y, x) = if x + 1 == wd { (y + 1, 0) } else { (y, x + 1) };
            }
            for (ky, kx) in taps(k) {
                // Lane 0's offset, valid or not: the lanes are linear in it.
                let (sy, sx) = (dir.shift(ky, pad), dir.shift(kx, pad));
                let off = (y0 as isize + sy) * ws as isize + x0 as isize + sx;
                taps_of.push((off, rows[ky] & cols[kx]));
            }
        }
        DirectLayout {
            at: starts.iter().map(|&(i0, n)| (i0, lane_bits(n))).collect(),
            taps: taps_of,
            run: usize::MAX,
            dcs: hd * wd,
            scs: hs * ws,
            d_stride: cd * hd * wd,
            s_stride: cs * hs * ws,
        }
    }

    /// Vectors over a sample-innermost staging of `samples` samples in
    /// `groups = ⌈samples / 16⌉` lane groups, `[channel][pixel][groups·16]`
    /// on both sides: one vector per `(destination pixel, group)`,
    /// pixel-major, every lane of a tap valid or none — so a pixel's
    /// `groups` vectors are one run. Lanes past the last sample are not
    /// computed.
    fn staged(geo: &Conv2dGeometry, c_out: usize, dir: Dir, samples: usize) -> Self {
        let [((hd, wd), _), ((hs, ws), _)] = dir.planes(geo, c_out);
        let (k, pad, groups) = (geo.k, geo.pad, samples.div_ceil(LANES));
        let lanes = groups * LANES;
        let mut taps_of = Vec::with_capacity(hd * wd * groups * k * k);
        for i in 0..hd * wd {
            let (y, x) = (i / wd, i % wd);
            for gi in 0..groups {
                for (ky, kx) in taps(k) {
                    let src = (dir.reaches(y, ky, pad, hs), dir.reaches(x, kx, pad, ws));
                    taps_of.push(match src {
                        (Some(sy), Some(sx)) => {
                            (((sy * ws + sx) * lanes + gi * LANES) as isize, u16::MAX)
                        }
                        _ => (0, 0),
                    });
                }
            }
        }
        let live = |v: usize| lane_bits(samples - v % groups * LANES);
        DirectLayout {
            at: (0..hd * wd * groups)
                .map(|v| (v * LANES, live(v)))
                .collect(),
            taps: taps_of,
            run: groups,
            dcs: hd * wd * lanes,
            scs: hs * ws * lanes,
            d_stride: 0,
            s_stride: 0,
        }
    }
}

/// One direct kernel: the register tiles it runs over a [`DirectLayout`]'s
/// vectors, and its per-ISA instances.
trait Direct: Copy {
    /// Every destination channel of `NV` vectors, `CM` channels per
    /// register tile.
    ///
    /// # Safety
    ///
    /// `dst[v]` / `src[v]` must point at vector `v`'s first destination
    /// element (channel 0) and at its sample's source origin, with every
    /// lane the layout names in bounds, and the CPU must support `L`.
    unsafe fn block<L: Lanes, const CM: usize, const NV: usize>(
        self,
        lay: &DirectLayout,
        dst: [*mut f32; NV],
        src: [*const f32; NV],
        slot: [usize; NV],
    );

    /// `(isa, k, lay, dst, src, samples)`: [`direct_vectors`] of `k` on
    /// `isa` ([`dx_vectors`], [`fwd_vectors`]). Safety: as
    /// [`Direct::block`], for every vector of `samples` samples.
    const VECTORS: Vectors<Self>;
}

/// The signature of a [`Direct::VECTORS`].
type Vectors<K> = unsafe fn(Isa, K, &DirectLayout, *mut f32, *const f32, usize);

/// `NV` vectors from vector `j0` on.
#[inline(always)]
unsafe fn direct_block<L: Lanes, K: Direct, const CM: usize, const NV: usize>(
    k: K,
    lay: &DirectLayout,
    dst: *mut f32,
    src: *const f32,
    j0: usize,
) {
    let n_slots = lay.at.len();
    let mut slot = [0usize; NV];
    let mut dv = [dst; NV];
    let mut sv = [src; NV];
    for v in 0..NV {
        let (s, sl) = ((j0 + v) / n_slots, (j0 + v) % n_slots);
        slot[v] = sl;
        dv[v] = dst.wrapping_add(s * lay.d_stride + lay.at[sl].0);
        sv[v] = src.wrapping_add(s * lay.s_stride);
    }
    // SAFETY: vector `j0 + v` is slot `sl` of sample `s`, so `dv[v]` /
    // `sv[v]` are its destination element and source origin; the caller
    // guarantees its lanes in bounds and the CPU support.
    unsafe { k.block::<L, CM, NV>(lay, dv, sv, slot) };
}

/// Every vector of `samples` samples, `NV` abreast (then two, then one at
/// the end of each run), `CM` destination channels at a time.
#[inline(always)]
unsafe fn direct_vectors<L: Lanes, K: Direct, const CM: usize, const NV: usize>(
    k: K,
    lay: &DirectLayout,
    dst: *mut f32,
    src: *const f32,
    samples: usize,
) {
    let total = samples * lay.at.len();
    let mut j = 0;
    while j < total {
        let left = (lay.run - j % lay.run).min(total - j);
        // SAFETY: every block lies within the `total` vectors the caller
        // vouches for.
        unsafe {
            if left >= NV {
                direct_block::<L, K, CM, NV>(k, lay, dst, src, j);
                j += NV;
            } else if NV > 2 && left >= 2 {
                direct_block::<L, K, CM, 2>(k, lay, dst, src, j);
                j += 2;
            } else {
                direct_block::<L, K, CM, 1>(k, lay, dst, src, j);
                j += 1;
            }
        }
    }
}

/// Elements of a sample row moved per pass of [`to_lanes`] /
/// [`from_lanes`]: the destination rows of one pass stay in L1.
const LANE_TILE: usize = 64;

/// `dst[e·ld + s] = src[s·len + e]`: `samples` rows of `len` into
/// sample-innermost columns.
fn to_lanes(src: &[f32], len: usize, dst: &mut [f32], ld: usize) {
    for e0 in (0..len).step_by(LANE_TILE) {
        let e1 = (e0 + LANE_TILE).min(len);
        for (s, row) in src.chunks_exact(len).enumerate() {
            for (e, &v) in (e0..e1).zip(&row[e0..e1]) {
                dst[e * ld + s] = v;
            }
        }
    }
}

/// The inverse of [`to_lanes`]: `dst[s·len + e] = src[e·ld + s]`.
fn from_lanes(src: &[f32], ld: usize, dst: &mut [f32], len: usize) {
    for e0 in (0..len).step_by(LANE_TILE) {
        let e1 = (e0 + LANE_TILE).min(len);
        for (s, row) in dst.chunks_exact_mut(len).enumerate() {
            for (e, v) in (e0..e1).zip(&mut row[e0..e1]) {
                *v = src[e * ld + s];
            }
        }
    }
}

/// Runs direct kernel `k` in direction `dir` over `batch` samples of `dst`
/// from `src`. Planes are read in place unless staging them
/// sample-innermost, 16 samples per vector, computes fewer lanes (planes
/// of under 16 elements — the 2×2 stage: one vector per pixel instead of
/// a quarter-used vector per plane); the staging lives in the thread's
/// workspace. Threads split whole samples, so the result is thread-count
/// invariant.
#[allow(clippy::too_many_arguments)]
fn direct_conv<K: Direct + Sync>(
    isa: Isa,
    k: K,
    dir: Dir,
    geo: &Conv2dGeometry,
    c_out: usize,
    dst: &mut [f32],
    src: &[f32],
    batch: usize,
    threads: usize,
) {
    debug_assert_eq!(geo.stride, 1, "the direct kernels are stride-1 only");
    let [((hd, wd), cd), ((hs, ws), cs)] = dir.planes(geo, c_out);
    let (d_len, s_len) = (cd * hd * wd, cs * hs * ws);
    if batch == 0 || d_len == 0 || s_len == 0 {
        return;
    }
    let in_place = DirectLayout::in_place(geo, c_out, dir);
    // Vector lanes per tap of the whole batch: in place against staged.
    let staged = in_place.at.len() * LANES * batch > batch.next_multiple_of(LANES) * hd * wd;
    for_row_chunks(dst, batch, d_len, threads, |s0, s1, chunk| {
        let (src, samples) = (&src[s0 * s_len..s1 * s_len], s1 - s0);
        if !staged {
            // SAFETY: every slot's lanes are in-plane elements of the
            // chunk's samples; the dispatcher checks `isa`.
            unsafe { K::VECTORS(isa, k, &in_place, chunk.as_mut_ptr(), src.as_ptr(), samples) };
            return;
        }
        let lay = DirectLayout::staged(geo, c_out, dir, samples);
        let ld = samples.next_multiple_of(LANES);
        WS.with(|tws| {
            let lanes = &mut tws.borrow_mut().lanes;
            // Lanes past the last sample keep whatever an earlier call
            // left there: they are loaded but never copied back.
            let len = (s_len + d_len) * ld;
            if lanes.len() < len {
                lanes.resize(len, 0.0);
            }
            let (s_t, d_t) = lanes[..len].split_at_mut(s_len * ld);
            to_lanes(src, s_len, s_t, ld);
            to_lanes(chunk, d_len, d_t, ld);
            // SAFETY: the staging holds every lane the layout names.
            unsafe { K::VECTORS(isa, k, &lay, d_t.as_mut_ptr(), s_t.as_ptr(), 1) };
            from_lanes(d_t, ld, chunk, d_len);
        });
    });
}

// -------------------------------------------------------------- direct dX

/// The direct input gradient: `w` is the layer's `[co][c][tap]` weight.
#[derive(Clone, Copy)]
struct DxKernel<'a> {
    w: &'a [f32],
    c_in: usize,
    c_out: usize,
    k2: usize,
}

/// Input channels `c0 .. c0+C` of `NV` vectors: per tap with any valid
/// lane, `t = +0.0`, `t = fma(w[co,c,tap], grad[co, …], t)` for `co`
/// ascending, then `dx += t` on the valid lanes — each `dx` element's
/// chain is the GEMM's `dcols` chain followed by `col2im`'s add.
///
/// # Safety
///
/// `dx[v]` / `grad[v]` must point at vector `v`'s first `dx` element in
/// channel `c0` and at its sample's `grad` origin, with every lane the
/// layout names in bounds, and the CPU must support `L`.
#[inline(always)]
unsafe fn dx_tile<L: Lanes, const C: usize, const NV: usize>(
    k: DxKernel,
    lay: &DirectLayout,
    c0: usize,
    dx: [*mut f32; NV],
    grad: [*const f32; NV],
    slot: [usize; NV],
) {
    // (`array::map` would call its closure out of line, outside this
    // function's target features.)
    let mut live = [L::mask(0); NV];
    for v in 0..NV {
        live[v] = L::mask(lay.at[slot[v]].1);
    }
    let mut acc = [[L::zero(); NV]; C];
    for (c, row) in acc.iter_mut().enumerate() {
        for v in 0..NV {
            row[v] = unsafe { L::load(dx[v].wrapping_add(c * lay.dcs), live[v]) };
        }
    }
    for tap in 0..k.k2 {
        let mut bits = [0u16; NV];
        let mut g0 = grad;
        for v in 0..NV {
            let (off, b) = lay.taps[slot[v] * k.k2 + tap];
            bits[v] = b;
            g0[v] = grad[v].wrapping_offset(off);
        }
        if bits.iter().all(|&b| b == 0) {
            continue;
        }
        let mut m = [L::mask(0); NV];
        for v in 0..NV {
            m[v] = L::mask(bits[v]);
        }
        let mut t = [[L::zero(); NV]; C];
        // w[co, c, tap] for c = c0: each of the C broadcasts is its own
        // load, so the weight is read in place, k² apart.
        let w_tap = k.w[c0 * k.k2 + tap..].as_ptr();
        for co in 0..k.c_out {
            let mut g = [L::zero(); NV];
            for v in 0..NV {
                g[v] = unsafe { L::load(g0[v].wrapping_add(co * lay.scs), m[v]) };
            }
            let w_co = w_tap.wrapping_add(co * k.c_in * k.k2);
            for (c, row) in t.iter_mut().enumerate() {
                let wc = unsafe { L::splat(w_co.wrapping_add(c * k.k2)) };
                for v in 0..NV {
                    row[v] = L::fma(wc, g[v], row[v]);
                }
            }
        }
        for (a, t) in acc.iter_mut().zip(&t) {
            for v in 0..NV {
                a[v] = L::add_masked(a[v], t[v], m[v]);
            }
        }
    }
    for (c, row) in acc.iter().enumerate() {
        for v in 0..NV {
            unsafe { L::store(dx[v].wrapping_add(c * lay.dcs), live[v], row[v]) };
        }
    }
}

impl Direct for DxKernel<'_> {
    /// Input channels `CM ≤ 4` at a time.
    #[inline(always)]
    unsafe fn block<L: Lanes, const CM: usize, const NV: usize>(
        self,
        lay: &DirectLayout,
        dx: [*mut f32; NV],
        grad: [*const f32; NV],
        slot: [usize; NV],
    ) {
        for c0 in (0..self.c_in).step_by(CM) {
            let mut dc = dx;
            for p in &mut dc {
                *p = p.wrapping_add(c0 * lay.dcs);
            }
            // SAFETY: `dc` points at channel `c0` of the block's vectors;
            // each tile takes at most the channels that remain.
            unsafe {
                match (self.c_in - c0).min(CM) {
                    1 => dx_tile::<L, 1, NV>(self, lay, c0, dc, grad, slot),
                    2 => dx_tile::<L, 2, NV>(self, lay, c0, dc, grad, slot),
                    3 => dx_tile::<L, 3, NV>(self, lay, c0, dc, grad, slot),
                    _ => dx_tile::<L, 4, NV>(self, lay, c0, dc, grad, slot),
                }
            }
        }
    }

    const VECTORS: Vectors<Self> = dx_vectors;
}

crate::per_isa! {
    /// [`direct_vectors`] of the direct dX on `isa`.
    unsafe fn dx_vectors(
        isa: Isa,
        k: DxKernel<'_>,
        lay: &DirectLayout,
        dx: *mut f32,
        grad: *const f32,
        samples: usize,
    ) {
        // 4 channels × 3 vectors: 12 chains + 12 accumulators + 3 gradient
        // vectors + 1 weight = 28 of 32 zmm.
        avx512 => unsafe { direct_vectors::<Zmm, DxKernel, 4, 3>(k, lay, dx, grad, samples) },
        // 3 channels × one vector of two halves: 6 + 6 + 2 + 1 = 15 of 16 ymm.
        avx2 => unsafe { direct_vectors::<Ymm2, DxKernel, 3, 1>(k, lay, dx, grad, samples) },
        base => unsafe { direct_vectors::<Portable16, DxKernel, 4, 1>(k, lay, dx, grad, samples) },
    }
}

/// Direct input gradient of a stride-1 convolution (module doc, "The
/// canonical accumulation chain"): every `dx` element is produced in
/// registers from `grad` and the weights, both read in place — no
/// `dcols`, no scatter, no FMA on a tap whose lanes all fall in the
/// padding ([`direct_conv`] places the vectors).
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_backward_input_direct(
    isa: Isa,
    w: &[f32],
    grad: &[f32],
    dx: &mut [f32],
    batch: usize,
    c_out: usize,
    geo: &Conv2dGeometry,
    threads: usize,
) {
    let kernel = DxKernel {
        w,
        c_in: geo.c_in,
        c_out,
        k2: geo.k * geo.k,
    };
    direct_conv(
        isa,
        kernel,
        Dir::Backward,
        geo,
        c_out,
        dx,
        grad,
        batch,
        threads,
    );
}

// --------------------------------------------------------- direct forward

/// Largest `k²` the direct forward takes (`k ≤ 5`): a tile keeps each
/// tap's source pointers and masks in arrays of this length.
pub(crate) const MAX_TAPS: usize = 25;

/// The direct forward: `w` is the layer's `[co][c][tap]` weight. `skip`
/// allows a tile to skip the FMAs of a tap whose lanes all read padding —
/// set only when every weight is finite.
#[derive(Clone, Copy)]
struct FwdKernel<'a> {
    w: &'a [f32],
    bias: Option<&'a [f32]>,
    c_in: usize,
    c_out: usize,
    k2: usize,
    skip: bool,
}

/// What a forward block's tiles read per tap, hoisted out of their
/// `(c, tap)` loops: each vector's source origin and lane mask, whether any
/// of the block's lanes is valid, and the lanes each vector computes.
struct FwdTaps<L: Lanes, const NV: usize> {
    src: [[*const f32; NV]; MAX_TAPS],
    mask: [[L::Mask; NV]; MAX_TAPS],
    valid: [bool; MAX_TAPS],
    live_bits: [u16; NV],
    live: [L::Mask; NV],
}

/// Output channels `co0 .. co0+C` of `NV` vectors: from `out`, for each
/// `(c, tap)` ascending, `acc = fma(w[co,c,tap], x[c, …], acc)` with
/// padding lanes read as `+0.0` by the masked loads, then `acc + bias` —
/// each element's chain is the `im2col` + GEMM one, then its bias add.
///
/// With `skip`, a tap whose lanes all read padding is not computed. Its
/// `fma(w, +0, acc)` would, for a finite `w`, only turn an `acc` of `-0.0`
/// into `+0.0` (when `w`'s sign bit is clear), and once two chains differ
/// only in the sign of a zero, every later step either keeps them zeros
/// or gives both the same value (`x + (±0) = x` for any non-zero `x`).
/// So a skipping chain ends bitwise exact or as a zero of the other sign,
/// and a tile that ends with a `±0.0` on a computed lane is recomputed
/// with every tap.
///
/// # Safety
///
/// `out[v]` must point at vector `v`'s first `out` element in channel
/// `co0` and `taps` name only in-bounds source lanes; the CPU must
/// support `L`.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // index loops mirror the register tile
unsafe fn fwd_tile<L: Lanes, const C: usize, const NV: usize>(
    k: FwdKernel,
    lay: &DirectLayout,
    taps: &FwdTaps<L, NV>,
    mut skip: bool,
    co0: usize,
    out: [*mut f32; NV],
) {
    let ck2 = k.c_in * k.k2;
    let w0 = k.w[co0 * ck2..].as_ptr();
    loop {
        let mut acc = [[L::zero(); NV]; C];
        for (co, row) in acc.iter_mut().enumerate() {
            for v in 0..NV {
                // SAFETY: channel `co0 + co` of vector `v`, its computed
                // lanes only (the function's contract).
                row[v] = unsafe { L::load(out[v].wrapping_add(co * lay.dcs), taps.live[v]) };
            }
        }
        for c in 0..k.c_in {
            let w_c = w0.wrapping_add(c * k.k2);
            for t in 0..k.k2 {
                if skip && !taps.valid[t] {
                    continue;
                }
                let mut xv = [L::zero(); NV];
                for v in 0..NV {
                    let p = taps.src[t][v].wrapping_add(c * lay.scs);
                    // SAFETY: the tap's valid lanes of input channel `c`.
                    xv[v] = unsafe { L::load(p, taps.mask[t][v]) };
                }
                // w[co0 + co, c, tap]: read in place, c_in·k² apart.
                let w_t = w_c.wrapping_add(t);
                for (co, row) in acc.iter_mut().enumerate() {
                    // SAFETY: `w[co0 + co, c, t]`, inside `w` since
                    // `co0 + co < c_out`, `c < c_in`, `t < k²`.
                    let wv = unsafe { L::splat(w_t.wrapping_add(co * ck2)) };
                    for v in 0..NV {
                        row[v] = L::fma(wv, xv[v], row[v]);
                    }
                }
            }
        }
        if let Some(bias) = k.bias {
            for (co, row) in acc.iter_mut().enumerate() {
                // SAFETY: a reference into `bias`.
                let bv = unsafe { L::splat(&bias[co0 + co]) };
                for v in 0..NV {
                    row[v] = L::add(row[v], bv);
                }
            }
        }
        if skip {
            let mut zeros = 0u16;
            for row in &acc {
                for v in 0..NV {
                    zeros |= L::zeros(row[v]) & taps.live_bits[v];
                }
            }
            if zeros != 0 {
                skip = false;
                continue;
            }
        }
        for (co, row) in acc.iter().enumerate() {
            for v in 0..NV {
                // SAFETY: as the loads of `acc` above.
                unsafe { L::store(out[v].wrapping_add(co * lay.dcs), taps.live[v], row[v]) };
            }
        }
        return;
    }
}

impl Direct for FwdKernel<'_> {
    /// Full tiles of `CM` output channels, the tail in pieces of 8, 4, 2,
    /// 1; the taps are read once for all of them.
    #[inline(always)]
    #[allow(clippy::needless_range_loop)] // index loops mirror the register tile
    unsafe fn block<L: Lanes, const CM: usize, const NV: usize>(
        self,
        lay: &DirectLayout,
        out: [*mut f32; NV],
        x: [*const f32; NV],
        slot: [usize; NV],
    ) {
        let mut taps = FwdTaps::<L, NV> {
            src: [x; MAX_TAPS],
            mask: [[L::mask(0); NV]; MAX_TAPS],
            valid: [false; MAX_TAPS],
            live_bits: [0; NV],
            live: [L::mask(0); NV],
        };
        for t in 0..self.k2 {
            for v in 0..NV {
                let (off, bits) = lay.taps[slot[v] * self.k2 + t];
                taps.src[t][v] = x[v].wrapping_offset(off);
                taps.mask[t][v] = L::mask(bits);
                taps.valid[t] |= bits != 0;
            }
        }
        for v in 0..NV {
            taps.live_bits[v] = lay.at[slot[v]].1;
            taps.live[v] = L::mask(taps.live_bits[v]);
        }
        let skip = self.skip && taps.valid[..self.k2].contains(&false);
        let mut co0 = 0;
        while co0 < self.c_out {
            let mut o = out;
            for p in &mut o {
                *p = p.wrapping_add(co0 * lay.dcs);
            }
            let left = self.c_out - co0;
            // SAFETY: `o` points at channel `co0` of the block's vectors,
            // whose source lanes `taps` holds from the caller's layout;
            // each tile takes at most the `left` channels that remain.
            co0 += unsafe {
                if left >= CM {
                    fwd_tile::<L, CM, NV>(self, lay, &taps, skip, co0, o);
                    CM
                } else if left >= 8 {
                    fwd_tile::<L, 8, NV>(self, lay, &taps, skip, co0, o);
                    8
                } else if left >= 4 {
                    fwd_tile::<L, 4, NV>(self, lay, &taps, skip, co0, o);
                    4
                } else if left >= 2 {
                    fwd_tile::<L, 2, NV>(self, lay, &taps, skip, co0, o);
                    2
                } else {
                    fwd_tile::<L, 1, NV>(self, lay, &taps, skip, co0, o);
                    1
                }
            };
        }
    }

    const VECTORS: Vectors<Self> = fwd_vectors;
}

crate::per_isa! {
    /// [`direct_vectors`] of the direct forward on `isa`.
    unsafe fn fwd_vectors(
        isa: Isa,
        k: FwdKernel<'_>,
        lay: &DirectLayout,
        out: *mut f32,
        x: *const f32,
        samples: usize,
    ) {
        // 12 channels × 2 vectors: 24 accumulators + 2 input vectors; the
        // weight broadcasts are memory operands of the FMAs.
        avx512 => unsafe { direct_vectors::<Zmm, FwdKernel, 12, 2>(k, lay, out, x, samples) },
        // 6 channels × one vector of two halves: 12 + 2 + 1 weight = 15 of
        // 16 ymm.
        avx2 => unsafe { direct_vectors::<Ymm2, FwdKernel, 6, 1>(k, lay, out, x, samples) },
        base => unsafe { direct_vectors::<Portable16, FwdKernel, 4, 1>(k, lay, out, x, samples) },
    }
}

/// Whether every element of `w` is finite: `v · 0` is a zero for a finite
/// `v` and NaN otherwise, summed sixteen abreast (a form the baseline
/// x86-64 target vectorizes).
fn all_finite(w: &[f32]) -> bool {
    let mut acc = [0.0f32; LANES];
    let chunks = w.chunks_exact(LANES);
    let tail = chunks.remainder();
    for c in chunks {
        for (a, &v) in acc.iter_mut().zip(c) {
            *a += v * 0.0;
        }
    }
    acc.iter().chain(tail).all(|v| v.is_finite())
}

/// Direct forward of a stride-1 convolution (module doc, "Direct forward
/// (stride 1)"): every `out` element's chain runs in registers from `x`
/// and the weights, both read in place — no `cols`, no packed weights
/// ([`direct_conv`] places the vectors).
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_forward_direct(
    isa: Isa,
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    batch: usize,
    c_out: usize,
    geo: &Conv2dGeometry,
    threads: usize,
) {
    let kernel = FwdKernel {
        w,
        bias,
        c_in: geo.c_in,
        c_out,
        k2: geo.k * geo.k,
        // Finite iff the exponent is not all ones: one vectorized max.
        skip: all_finite(w),
    };
    direct_conv(
        isa,
        kernel,
        Dir::Forward,
        geo,
        c_out,
        out,
        x,
        batch,
        threads,
    );
}
