//! The panel-packed, cache-blocked GEMM engine behind
//! [`Parallel`](crate::Parallel).
//!
//! # Structure
//!
//! Every GEMM flavor (`A·B`, `Aᵀ·B`, `A·Bᵀ`) runs through one driver,
//! `gemm::drive_packed`, over a packed A operand and a *source* of B panels
//! ([`BSrc`]): a row reader `f(p, j0, dst)` or a column reader for
//! transposed operands. The driver packs A into row-panels of `MR` rows
//! and B into column-panels of `NR` columns, blocks the reduction into
//! `KC`-deep slabs sized so one B panel stays L1-resident, and walks a
//! register-tiled microkernel over the packed panels:
//!
//! ```text
//!   apack: [panel ip][p in 0..kc][r in 0..MR]   (zero-padded rows)
//!   bpack: [panel jp][p in 0..kc][c in 0..NR]   (zero-padded cols)
//!   C tile: MR×NR accumulators, ldc-strided loads/stores
//! ```
//!
//! Per shape, `gemm::tiles_for` picks `MC/KC/NC` and `gemm::tile_for` the
//! microkernel: square shapes get the widest tile, skinny-M or skinny-N
//! shapes narrower ones that waste less zero-padding, and shallow-N shapes
//! get deeper `KC` slabs to amortize C-tile traffic. The AVX-512 tiles are
//! written by hand; the AVX2 and portable ones are one `mul_add` body the
//! compiler writes per ISA ([`per_isa!`](crate::per_isa)).
//!
//! # Reference lowering (stride ≥ 2, k > 5)
//!
//! The training stack's convolutions are k = 3, stride 1: their forward
//! and input gradient run the direct kernels below, their weight gradient
//! the broadcast kernel. A forward at stride ≥ 2 or `k > 5` and an input
//! gradient at stride ≥ 2 (the CNN4 stem, ResNet downsampling) take the
//! `im2col` + GEMM lowering of [`crate::backend`] instead, per sample on
//! this packed GEMM. Its chains are the canonical ones below, so it is
//! also the direct kernels' bitwise reference.
//!
//! # Direct input gradient (stride 1)
//!
//! At stride 1, input pixel `(y, x)` receives tap `(ky, kx)` from output
//! `(y + pad − ky, x + pad − kx)` alone, when that output exists. The
//! direct kernel ([`conv2d_backward_input_direct`]) computes each `dx`
//! element from `grad` and the weights where they lie — no `dcols`, no
//! scatter, no FMA on a tap whose lanes all fall in the padding. A
//! *vector* is 16 lanes: 16 consecutive elements of a `(sample, channel)`
//! plane read in place, or — for planes too small to fill one (2×2) —
//! one pixel of 16 samples staged sample-innermost (`direct::DirectLayout`).
//! Every `(vector, tap)` has a lane mask; the register tile is 4 input
//! channels × 3 vectors (3 × 1 on AVX2) and walks `co` in its inner loop.
//!
//! # Direct forward (stride 1)
//!
//! The forward is the same walk with the tap offset negated (`direct::Dir`):
//! output pixel `(y, x)` reads input `(y + ky − pad, x + kx − pad)`. The
//! direct forward ([`conv2d_forward_direct`], `k ≤ 5`) places its vectors
//! in the `out` planes with the same `direct::DirectLayout` and computes each
//! element's whole chain in registers from `x` and the weights read in
//! place — no `cols`, no packed weights. Its register tile is 12 output
//! channels × 2 vectors (6 × 1 on AVX2): per `(c, tap)` it loads the two
//! input vectors once and FMAs them into every channel's accumulators;
//! each tap's source pointers and masks are read from the layout once per
//! block of vectors, for all its channel tiles.
//! `direct::direct_conv` is the one driver of both directions: in place or
//! sample-innermost, samples split across threads.
//!
//! # Broadcast weight gradient
//!
//! `dw += Σ_s grad[s] · im2col(x[s])ᵀ` reduces over `K = (s, oy, ox)`.
//! The broadcast kernel ([`conv2d_backward_weights_broadcast`], every
//! stride, `k` and size) puts the vector lanes over output channels and
//! reads each image factor in place, as the broadcast operand of an FMA.
//! The batch is cut into *fold groups* of `g` consecutive samples,
//! `g·n_cols ≈` `dw::FOLD_COLS` (one sample when `n_cols` alone exceeds it).
//! Per thread (threads split the output channels) and fold group it holds
//! a [`Staging`] (`buf`, `base`, `row_off`) and two channel-innermost
//! operands (`gt`, `dwt`):
//!
//! ```text
//!   buf:        [g, c_in, h+2·pad, w+2·pad]   the images, borders zero
//!   base[j]:    corner of patch j = (s, oy, ox) in buf      (g·n_cols)
//!   row_off[p]: offset of tap p = (c, ky, kx) from a corner (c_in·k²)
//!   gt[j][co]:  grad[s, co, oy, ox]                       (lanes: channels)
//!   dwt[p][co]: dw[co, p], transposed once per call       (lanes: channels)
//! ```
//!
//! (channels padded with zero lanes to whole vectors; `lanes::transpose` moves
//! both), and a register tile of up to 3 channel vectors × 9 taps walks
//! `j`:
//!
//! ```text
//!   for each tap p, from the incoming dw[co, p]:
//!     for j = (s, oy, ox) in ascending order, over every fold group:
//!       dw ← fma(grad[s, co, oy, ox], buf[base[j] + row_off[p]], dw)
//! ```
//!
//! — `im2col(x[s])[p][q]` is `buf[base[j] + row_off[p]]`, read with no
//! bounds or padding logic, so this is the GEMM chain with `K` folded in
//! sample order, bit for bit. A padding tap is an FMA on the border's
//! `+0.0`: an infinite gradient there makes NaN, and a product `+0.0`
//! turns a `-0.0` chain `+0.0`, as they do on `im2col`'s zeros. Offsets
//! are `u32`, built through checked conversions; a group shrinks (down to
//! one sample) before a table could overflow.
//!
//! # The canonical accumulation chain
//!
//! Every kernel variant computes each output element as the *same*
//! fused-multiply-add chain
//!
//! ```text
//!   c ← fma(a[i,p], b[p,j], c)   for p = 0, 1, …, K-1 in order
//! ```
//!
//! starting from the caller's initial `out` value. Vector FMA lanes
//! evaluate that chain per lane, `f32::mul_add` is the same correctly
//! rounded operation, KC-blocking only stores and reloads the exact
//! intermediate, zero-padded panel lanes contribute `fma(0, x, c) = c`,
//! and edge tiles run the identical kernel on a scratch tile whose valid
//! region is copied in and out. Results are therefore **bit-identical**
//! across microkernel variants (8×32, 4×16, …), tile configurations,
//! worker-thread counts, and even instruction sets (AVX-512 vs AVX2 vs
//! the portable `mul_add` path) — the unit tests pin all three claims.
//! The weight gradient's `K = (s, oy, ox)` concatenates the per-sample
//! reductions in sample order, the order the sample-at-a-time loop
//! accumulates in, and [`crate::im2col::col2im`] adds each image
//! element's taps in `(ky, kx)` order.
//!
//! The input gradient's chain per `dx` element is therefore, from the
//! incoming `dx`:
//!
//! ```text
//!   for each valid tap (ky, kx) in ascending order:
//!     t ← +0.0
//!     t ← fma(w[co, c, ky, kx], grad[co, y+pad−ky, x+pad−kx], t)   for co = 0, 1, …
//!     dx ← dx + t
//! ```
//!
//! and the direct kernel evaluates exactly this. It *masks* invalid taps
//! rather than reading zero padding: a masked load yields `+0.0` without
//! touching memory, and the add into `dx` is masked too, so an invalid
//! tap never reaches `dx`. Zero padding would not be exact — adding its
//! `t = +0.0` turns a `-0.0` in `dx` into `+0.0`, and an infinite weight
//! times a padded zero is NaN. (`col2im` is exact because it skips the
//! taps that fall off the image.)
//!
//! The forward's chain per `out` element is, from the incoming `out`:
//!
//! ```text
//!   for (c, ky, kx) in ascending order:
//!     o ← fma(w[co, c, ky, kx], x[c, y+ky−pad, x+kx−pad], o)   (+0.0 off the image)
//!   o ← o + bias[co]                                           (with a bias)
//! ```
//!
//! Here the padding *is* part of the chain: `im2col` writes `+0.0` for
//! a tap off the image, so the direct forward computes a padding lane as an
//! FMA on the `+0.0` of a zero-filling masked load. A tap whose lanes all
//! read padding (5 of 9 taps per pixel on the 2×2 stage's
//! sample-innermost vectors) may be skipped only where it cannot change a
//! bit. For a finite `w`, `fma(w, +0.0, o)` is `o` unless `o` is `-0.0`
//! and `w`'s sign bit is clear, when it is `+0.0`. So the kernel skips
//! such taps only when every weight is finite (one scan per call), and —
//! because `-0.0` can also arise mid-chain, from the incoming `out` or
//! from a product that underflows — a register tile that skipped a tap
//! and ends with a `±0.0` on a computed lane is recomputed with every
//! tap: a chain that differs from the exact one only in the sign of a
//! zero either ends as a zero or loses the difference at its next
//! non-zero product (`direct::fwd_tile`).
//!
//! The only caveat is hardware without fused multiply-add, where the
//! portable path falls back to a (still in-order, still deterministic)
//! libm `fmaf` and pays for the correctness guarantee with speed.

mod direct;
mod dw;
mod gemm;
mod lanes;
#[cfg(test)]
mod tests;
#[cfg(test)]
mod tune;

pub(crate) use direct::{conv2d_backward_input_direct, conv2d_forward_direct, MAX_TAPS};
pub(crate) use dw::conv2d_backward_weights_broadcast;
pub(crate) use gemm::{gemm, BSrc};
pub(crate) use lanes::transpose;

use dw::Staging;
use std::cell::RefCell;

// --------------------------------------------------------------- workspace

/// Per-thread packing scratch, reused across calls for the lifetime of
/// the thread (kernel threads spawned per call rebuild it; long-lived
/// client worker threads keep it warm across every layer they run).
#[derive(Default)]
struct Ws {
    apack: Vec<f32>,
    bpack: Vec<f32>,
    /// Padded images and offset tables of one conv fold group.
    st: Staging,
    /// Sample-innermost source and destination of one direct-kernel call;
    /// the channel-innermost `dwt` and `gt` of one broadcast-dW call.
    lanes: Vec<f32>,
}

thread_local! {
    static WS: RefCell<Ws> = RefCell::new(Ws::default());
}
