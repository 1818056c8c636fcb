//! The panel-packed, cache-blocked GEMM engine behind
//! [`Parallel`](crate::Parallel).
//!
//! # Structure
//!
//! Every GEMM flavor (`A·B`, `Aᵀ·B`, `A·Bᵀ`) runs through one driver,
//! [`drive_packed`], over a packed A operand and a *source* of B panels
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
//! A per-shape dispatcher ([`tiles_for`] plus the kernel-variant choice
//! in [`dispatch_kernel!`]) picks `MC/KC/NC` and the microkernel size:
//! square shapes get the widest kernel, skinny-M or skinny-N shapes get
//! narrower variants that waste less zero-padding, and shallow-N shapes
//! get deeper `KC` slabs to amortize C-tile traffic.
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
//! one pixel of 16 samples staged sample-innermost ([`DirectLayout`]).
//! Every `(vector, tap)` has a lane mask; the register tile is 4 input
//! channels × 3 vectors (3 × 1 on AVX2) and walks `co` in its inner loop.
//!
//! # Direct forward (stride 1)
//!
//! The forward is the same walk with the tap offset negated ([`Dir`]):
//! output pixel `(y, x)` reads input `(y + ky − pad, x + kx − pad)`. The
//! direct forward ([`conv2d_forward_direct`], `k ≤ 5`) places its vectors
//! in the `out` planes with the same [`DirectLayout`] and computes each
//! element's whole chain in registers from `x` and the weights read in
//! place — no `cols`, no packed weights. Its register tile is 12 output
//! channels × 2 vectors (6 × 1 on AVX2): per `(c, tap)` it loads the two
//! input vectors once and FMAs them into every channel's accumulators;
//! each tap's source pointers and masks are read from the layout once per
//! block of vectors, for all its channel tiles.
//! [`direct_conv`] is the one driver of both directions: in place or
//! sample-innermost, samples split across threads.
//!
//! # Broadcast weight gradient
//!
//! `dw += Σ_s grad[s] · im2col(x[s])ᵀ` reduces over `K = (s, oy, ox)`.
//! The broadcast kernel ([`conv2d_backward_weights_broadcast`], every
//! stride, `k` and size) puts the vector lanes over output channels and
//! reads each image factor in place, as the broadcast operand of an FMA.
//! The batch is cut into *fold groups* of `g` consecutive samples,
//! `g·n_cols ≈` [`FOLD_COLS`] (one sample when `n_cols` alone exceeds it).
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
//! (channels padded with zero lanes to whole vectors; [`transpose`] moves
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
//! non-zero product ([`fwd_tile`]).
//!
//! The only caveat is hardware without fused multiply-add, where the
//! portable path falls back to a (still in-order, still deterministic)
//! libm `fmaf` and pays for the correctness guarantee with speed.

use std::cell::RefCell;
use std::sync::OnceLock;

// ------------------------------------------------------------------- tiles

/// Cache-blocking sizes chosen per problem shape by [`tiles_for`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tiles {
    /// A-block rows walked per B-panel pass (register-panel granularity
    /// is handled by the driver, `mc` need not be a multiple of `MR`).
    pub mc: usize,
    /// Reduction depth of one packed slab.
    pub kc: usize,
    /// B-block columns packed per pass.
    pub nc: usize,
}

/// Picks `MC/KC/NC` for a problem shape.
///
/// * shallow-N problems (few output columns) take deeper `KC` slabs —
///   C-tile load/store traffic amortizes over more FMAs;
/// * everything is clamped to the problem so small shapes degenerate to
///   a single block with no re-streaming.
pub(crate) fn tiles_for(m: usize, kdim: usize, n: usize) -> Tiles {
    let kc = if n <= 64 {
        kdim.min(512)
    } else {
        kdim.min(256)
    };
    Tiles {
        mc: m.min(128),
        kc: kc.max(1),
        nc: n.min(512),
    }
}

// --------------------------------------------------------------------- isa

/// Instruction sets the microkernel dispatcher can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// 16-lane `zmm` kernels (requires `avx512f`).
    Avx512,
    /// 8-lane `ymm` kernels (requires `avx2` + `fma`).
    Avx2,
    /// `f32::mul_add` loops — bit-identical to the SIMD paths on any
    /// IEEE-754 machine, but slow without hardware FMA (libm `fmaf`).
    Portable,
}

/// The best ISA this CPU supports, detected once.
pub(crate) fn native_isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Isa::Avx2;
            }
        }
        Isa::Portable
    })
}

/// Every ISA the current CPU can actually execute (used by the bitwise
/// cross-ISA equivalence tests).
#[cfg(test)]
pub(crate) fn available_isas() -> Vec<Isa> {
    match native_isa() {
        Isa::Avx512 => vec![Isa::Avx512, Isa::Avx2, Isa::Portable],
        Isa::Avx2 => vec![Isa::Avx2, Isa::Portable],
        Isa::Portable => vec![Isa::Portable],
    }
}

// ------------------------------------------------------------ microkernels

/// A register-tiled `MR×NR` inner kernel over packed panels.
pub(crate) trait Microkernel {
    /// Panel height (output rows per tile).
    const MR: usize;
    /// Panel width (output columns per tile).
    const NR: usize;

    /// `C[MR×NR] ← C + Apanel·Bpanel` over `kc` reduction steps.
    ///
    /// # Safety
    ///
    /// `apanel` must hold `kc·MR` floats, `bpanel` `kc·NR` floats, and
    /// `c` must point at an `MR×NR` tile with row stride `ldc` that lies
    /// entirely inside a valid allocation. The required CPU features
    /// must have been verified by the caller.
    unsafe fn run(apanel: *const f32, bpanel: *const f32, kc: usize, c: *mut f32, ldc: usize);
}

/// Largest `MR·NR` of any kernel variant (scratch-tile capacity).
const MAX_TILE: usize = 12 * 32;
/// Widest panel of any kernel variant.
const MAX_NR: usize = 32;

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// `MR×(NU·16)` AVX-512 microkernel: `NU` zmm column vectors per row,
    /// one broadcast FMA per packed A element, C loaded first and stored
    /// last so the per-element chain is the canonical in-order fold.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::needless_range_loop)] // index loops mirror the register tile
    pub unsafe fn mk512<const MR: usize, const NU: usize>(
        apanel: *const f32,
        bpanel: *const f32,
        kc: usize,
        c: *mut f32,
        ldc: usize,
    ) {
        unsafe {
            let mut acc = [[_mm512_setzero_ps(); NU]; MR];
            for r in 0..MR {
                for u in 0..NU {
                    acc[r][u] = _mm512_loadu_ps(c.add(r * ldc + u * 16));
                }
            }
            let mut a = apanel;
            let mut b = bpanel;
            // Two reduction steps per trip: halves loop overhead and lets
            // the second step's loads issue while the first step's FMAs
            // retire. The per-element chain order is unchanged.
            let mut rem = kc;
            while rem >= 2 {
                _mm_prefetch(b.cast::<i8>().wrapping_add(NU * 16 * 4 * 8), _MM_HINT_T0);
                _mm_prefetch(a.cast::<i8>().wrapping_add(MR * 4 * 8), _MM_HINT_T0);
                for step in 0..2 {
                    let mut bv = [_mm512_setzero_ps(); NU];
                    for (u, slot) in bv.iter_mut().enumerate() {
                        *slot = _mm512_loadu_ps(b.add(step * NU * 16 + u * 16));
                    }
                    for r in 0..MR {
                        let av = _mm512_set1_ps(*a.add(step * MR + r));
                        for u in 0..NU {
                            acc[r][u] = _mm512_fmadd_ps(av, bv[u], acc[r][u]);
                        }
                    }
                }
                a = a.add(2 * MR);
                b = b.add(2 * NU * 16);
                rem -= 2;
            }
            if rem == 1 {
                let mut bv = [_mm512_setzero_ps(); NU];
                for (u, slot) in bv.iter_mut().enumerate() {
                    *slot = _mm512_loadu_ps(b.add(u * 16));
                }
                for r in 0..MR {
                    let av = _mm512_set1_ps(*a.add(r));
                    for u in 0..NU {
                        acc[r][u] = _mm512_fmadd_ps(av, bv[u], acc[r][u]);
                    }
                }
            }
            for r in 0..MR {
                for u in 0..NU {
                    _mm512_storeu_ps(c.add(r * ldc + u * 16), acc[r][u]);
                }
            }
        }
    }

    /// `d[c·ld_d + r] = s[r·ld_s + c]` for `c < cols ≤ 8` and `r < width ≤
    /// 8`, reading `+0.0` for `r ≥ rows`: unpack pairs of rows, shuffle
    /// quadruples, swap 128-bit halves. Short rows and columns move
    /// through masked loads and stores.
    ///
    /// # Safety
    ///
    /// `s` must hold `rows` rows of `cols` floats at stride `ld_s`, `d`
    /// `cols` rows of `width` floats at stride `ld_d`.
    #[target_feature(enable = "avx")]
    #[allow(clippy::needless_range_loop)] // index loops mirror the shuffle network
    pub unsafe fn transpose8(
        s: *const f32,
        ld_s: usize,
        d: *mut f32,
        ld_d: usize,
        rows: usize,
        cols: usize,
        width: usize,
    ) {
        const FIRST: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
        // SAFETY: the loads read the first `cols` floats of rows below
        // `rows`, the stores write the first `width` of rows below `cols`
        // (the contract); the masks come from inside `FIRST`.
        unsafe {
            let col_mask = _mm256_loadu_si256(FIRST.as_ptr().add(8 - cols).cast());
            let width_mask = _mm256_loadu_si256(FIRST.as_ptr().add(8 - width).cast());
            let mut r = [_mm256_setzero_ps(); 8];
            for i in 0..rows {
                r[i] = if cols == 8 {
                    _mm256_loadu_ps(s.add(i * ld_s))
                } else {
                    _mm256_maskload_ps(s.add(i * ld_s), col_mask)
                };
            }
            let mut t = [_mm256_setzero_ps(); 8];
            for i in 0..4 {
                t[2 * i] = _mm256_unpacklo_ps(r[2 * i], r[2 * i + 1]);
                t[2 * i + 1] = _mm256_unpackhi_ps(r[2 * i], r[2 * i + 1]);
            }
            let mut q = [_mm256_setzero_ps(); 8];
            for h in [0, 4] {
                q[h] = _mm256_shuffle_ps::<0x44>(t[h], t[h + 2]);
                q[h + 1] = _mm256_shuffle_ps::<0xEE>(t[h], t[h + 2]);
                q[h + 2] = _mm256_shuffle_ps::<0x44>(t[h + 1], t[h + 3]);
                q[h + 3] = _mm256_shuffle_ps::<0xEE>(t[h + 1], t[h + 3]);
            }
            for c in 0..cols {
                let v = if c < 4 {
                    _mm256_permute2f128_ps::<0x20>(q[c], q[c + 4])
                } else {
                    _mm256_permute2f128_ps::<0x31>(q[c - 4], q[c])
                };
                if width == 8 {
                    _mm256_storeu_ps(d.add(c * ld_d), v);
                } else {
                    _mm256_maskstore_ps(d.add(c * ld_d), width_mask, v);
                }
            }
        }
    }

    /// `MR×(NU·8)` AVX2+FMA microkernel, same structure as [`mk512`].
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::needless_range_loop)] // index loops mirror the register tile
    pub unsafe fn mk256<const MR: usize, const NU: usize>(
        apanel: *const f32,
        bpanel: *const f32,
        kc: usize,
        c: *mut f32,
        ldc: usize,
    ) {
        unsafe {
            let mut acc = [[_mm256_setzero_ps(); NU]; MR];
            for r in 0..MR {
                for u in 0..NU {
                    acc[r][u] = _mm256_loadu_ps(c.add(r * ldc + u * 8));
                }
            }
            let mut a = apanel;
            let mut b = bpanel;
            for _ in 0..kc {
                let mut bv = [_mm256_setzero_ps(); NU];
                for (u, slot) in bv.iter_mut().enumerate() {
                    *slot = _mm256_loadu_ps(b.add(u * 8));
                }
                for r in 0..MR {
                    let av = _mm256_set1_ps(*a.add(r));
                    for u in 0..NU {
                        acc[r][u] = _mm256_fmadd_ps(av, bv[u], acc[r][u]);
                    }
                }
                a = a.add(MR);
                b = b.add(NU * 8);
            }
            for r in 0..MR {
                for u in 0..NU {
                    _mm256_storeu_ps(c.add(r * ldc + u * 8), acc[r][u]);
                }
            }
        }
    }
}

/// Portable `MR×NR` microkernel on `f32::mul_add` — the same correctly
/// rounded fused operation the SIMD lanes perform, in the same order.
unsafe fn mk_portable<const MR: usize, const NR: usize>(
    apanel: *const f32,
    bpanel: *const f32,
    kc: usize,
    c: *mut f32,
    ldc: usize,
) {
    unsafe {
        let mut acc = [[0.0f32; NR]; MR];
        for (r, row) in acc.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = *c.add(r * ldc + j);
            }
        }
        for p in 0..kc {
            let a = apanel.add(p * MR);
            let b = bpanel.add(p * NR);
            for (r, row) in acc.iter_mut().enumerate() {
                let av = *a.add(r);
                for (j, v) in row.iter_mut().enumerate() {
                    *v = av.mul_add(*b.add(j), *v);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                *c.add(r * ldc + j) = *v;
            }
        }
    }
}

macro_rules! kernel {
    ($name:ident, $inner:path, $mr:expr, $nr:expr) => {
        pub(crate) struct $name;
        impl Microkernel for $name {
            const MR: usize = $mr;
            const NR: usize = $nr;
            #[inline]
            unsafe fn run(
                apanel: *const f32,
                bpanel: *const f32,
                kc: usize,
                c: *mut f32,
                ldc: usize,
            ) {
                unsafe { $inner(apanel, bpanel, kc, c, ldc) }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
kernel!(K512x12x32, x86::mk512::<12, 2>, 12, 32);
#[cfg(target_arch = "x86_64")]
kernel!(K512x8x32, x86::mk512::<8, 2>, 8, 32);
#[cfg(target_arch = "x86_64")]
kernel!(K512x8x16, x86::mk512::<8, 1>, 8, 16);
#[cfg(target_arch = "x86_64")]
kernel!(K512x4x32, x86::mk512::<4, 2>, 4, 32);
#[cfg(target_arch = "x86_64")]
kernel!(K512x4x16, x86::mk512::<4, 1>, 4, 16);
#[cfg(target_arch = "x86_64")]
kernel!(K256x6x16, x86::mk256::<6, 2>, 6, 16);
#[cfg(target_arch = "x86_64")]
kernel!(K256x6x8, x86::mk256::<6, 1>, 6, 8);
#[cfg(target_arch = "x86_64")]
kernel!(K256x4x16, x86::mk256::<4, 2>, 4, 16);
#[cfg(target_arch = "x86_64")]
kernel!(K256x4x8, x86::mk256::<4, 1>, 4, 8);
kernel!(KPort4x16, mk_portable::<4, 16>, 4, 16);
kernel!(KPort8x16, mk_portable::<8, 16>, 8, 16);

/// Picks the microkernel variant for an ISA and problem shape and runs
/// `$body` with `$k` bound to the chosen kernel type. Skinny-M shapes
/// (`m ≤ 4`) take the 4-row variants, skinny-N shapes the single-vector
/// column variants — less zero-padded panel work on degenerate shapes.
/// Every variant computes the same canonical chain, so the choice never
/// affects results.
macro_rules! dispatch_kernel {
    ($isa:expr, $m:expr, $n:expr, $k:ident => $body:expr) => {{
        match $isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => {
                if $m <= 4 {
                    if $n <= 16 {
                        type $k = K512x4x16;
                        $body
                    } else {
                        type $k = K512x4x32;
                        $body
                    }
                } else if $n <= 16 {
                    type $k = K512x8x16;
                    $body
                } else if $m <= 8 {
                    type $k = K512x8x32;
                    $body
                } else {
                    type $k = K512x12x32;
                    $body
                }
            }
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => {
                if $m <= 4 {
                    if $n <= 8 {
                        type $k = K256x4x8;
                        $body
                    } else {
                        type $k = K256x4x16;
                        $body
                    }
                } else if $n <= 8 {
                    type $k = K256x6x8;
                    $body
                } else {
                    type $k = K256x6x16;
                    $body
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx512 | Isa::Avx2 => {
                type $k = KPort4x16;
                $body
            }
            Isa::Portable => {
                if $m <= 4 {
                    type $k = KPort4x16;
                    $body
                } else {
                    type $k = KPort8x16;
                    $body
                }
            }
        }
    }};
}

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

// ------------------------------------------------------------------ driver

/// Packs the *whole* A operand (`m×kdim`) into `MR`-row panels grouped
/// by `kc`-deep slabs, zero-padding the ragged last panel.
///
/// Layout: slab `pc_idx` starts at `mpan·MR·(pc_idx·kc)`; within a slab,
/// panel `ip` holds elements `[p·MR + r]` for reduction steps `p` of the
/// slab and panel rows `r`.
fn pack_a_all(
    mr: usize,
    m: usize,
    kdim: usize,
    kc: usize,
    a_at: impl Fn(usize, usize) -> f32,
    buf: &mut Vec<f32>,
) {
    let mpan = m.div_ceil(mr);
    buf.resize(mpan * mr * kdim, 0.0);
    let mut pc = 0;
    while pc < kdim {
        let kcb = kc.min(kdim - pc);
        let slab = &mut buf[mpan * mr * pc..];
        for ip in 0..mpan {
            let i0 = ip * mr;
            let panel = &mut slab[ip * mr * kcb..(ip + 1) * mr * kcb];
            for p in 0..kcb {
                for r in 0..mr {
                    panel[p * mr + r] = if i0 + r < m {
                        a_at(i0 + r, pc + p)
                    } else {
                        0.0
                    };
                }
            }
        }
        pc += kcb;
    }
}

/// Hard ceiling on the KC tile (bounds the stack staging buffer used by
/// [`BSrc::Cols`] packing; [`tiles_for`] never exceeds it).
const MAX_KC: usize = 512;

/// How [`drive_packed`] materializes B panels.
pub(crate) enum BSrc<'a> {
    /// `f(p, j0, dst)` writes `B[p][j0 .. j0+dst.len()]` — for operands
    /// whose *rows* are contiguous (or cheap) along the output columns.
    Rows(&'a dyn Fn(usize, usize, &mut [f32])),
    /// `f(j, p0, dst)` writes `Bᵀ[j][p0 .. p0+dst.len()]`, i.e. column
    /// `j` of B — for transposed operands whose *source* rows are
    /// contiguous. Each staged row is scattered across one panel, so the
    /// expensive reads stay unit-stride and only the L1-resident panel
    /// writes are strided. Panel contents are identical to [`BSrc::Rows`]
    /// packing, so kernel numerics are unaffected.
    Cols(&'a dyn Fn(usize, usize, &mut [f32])),
}

/// Runs the blocked loop nest over a pre-packed A operand, packing B
/// panels on the fly through `b_src` and driving the microkernel.
///
/// `out` holds `m` rows of `n` valid columns at row stride `ldc`.
#[allow(clippy::too_many_arguments)] // internal driver: the loop-nest state is the argument list
fn drive_packed<K: Microkernel>(
    m: usize,
    kdim: usize,
    n: usize,
    out: &mut [f32],
    ldc: usize,
    tiles: Tiles,
    apack: &[f32],
    bpack: &mut Vec<f32>,
    b_src: BSrc<'_>,
) {
    if m == 0 || n == 0 || kdim == 0 {
        return;
    }
    debug_assert!(out.len() >= (m - 1) * ldc + n, "out buffer too small");
    let (mr, nr) = (K::MR, K::NR);
    let kc = tiles.kc.clamp(1, kdim).min(MAX_KC);
    let nc = tiles.nc.clamp(1, n);
    let mc = tiles.mc.clamp(1, m);
    let mpan_total = m.div_ceil(mr);
    bpack.resize(nc.div_ceil(nr) * nr * kc, 0.0);
    let mut jc = 0;
    while jc < n {
        let ncb = nc.min(n - jc);
        let npan = ncb.div_ceil(nr);
        let mut pc = 0;
        while pc < kdim {
            let kcb = kc.min(kdim - pc);
            let a_slab = &apack[mpan_total * mr * pc..];
            // Pack the B block into column panels (zero-padded).
            for jp in 0..npan {
                let j0 = jc + jp * nr;
                // Clamp to the NC-block edge, not just the matrix edge:
                // an `nc` that is not a panel multiple must not let one
                // panel spill into the next block's columns.
                let jw = nr.min(jc + ncb - j0);
                let panel = &mut bpack[jp * kc * nr..];
                match b_src {
                    BSrc::Rows(fill) => {
                        for p in 0..kcb {
                            let dst = &mut panel[p * nr..(p + 1) * nr];
                            fill(pc + p, j0, &mut dst[..jw]);
                            for d in &mut dst[jw..] {
                                *d = 0.0;
                            }
                        }
                    }
                    BSrc::Cols(fill) => {
                        let mut staged = [0.0f32; MAX_KC];
                        for t in 0..jw {
                            fill(j0 + t, pc, &mut staged[..kcb]);
                            for (p, &v) in staged[..kcb].iter().enumerate() {
                                panel[p * nr + t] = v;
                            }
                        }
                        for t in jw..nr {
                            for p in 0..kcb {
                                panel[p * nr + t] = 0.0;
                            }
                        }
                    }
                }
            }
            // Walk MC-row bands so the active A panels stay cache-hot
            // while every B panel of the block streams over them.
            let mut ic = 0;
            while ic < m {
                let mcb = mc.min(m - ic);
                let ip0 = ic / mr;
                debug_assert_eq!(ic % mr, 0, "MC bands must start on a panel boundary");
                let band_pan = (ic + mcb).div_ceil(mr) - ip0;
                for jp in 0..npan {
                    let j0 = jc + jp * nr;
                    let jw = nr.min(jc + ncb - j0);
                    let bpanel = bpack[jp * kc * nr..].as_ptr();
                    for ip in ip0..ip0 + band_pan {
                        let i0 = ip * mr;
                        let iw = mr.min(m - i0);
                        let apanel = a_slab[ip * mr * kcb..].as_ptr();
                        if iw == mr && jw == nr {
                            let tile = &mut out[i0 * ldc + j0..][..(mr - 1) * ldc + nr];
                            // SAFETY: `tile` spans the full MR×NR tile
                            // at stride `ldc` (the slice above checked
                            // it), both panels hold `kcb` packed steps,
                            // and the dispatch verified the required
                            // CPU features.
                            unsafe {
                                K::run(apanel, bpanel, kcb, tile.as_mut_ptr(), ldc);
                            }
                        } else {
                            // Ragged tile: run the identical kernel on a
                            // scratch tile; copies are exact, padded lanes
                            // fold `fma(0, x, c) = c`, so the per-element
                            // chain is unchanged.
                            let mut scratch = [0.0f32; MAX_TILE];
                            for r in 0..iw {
                                let row = &out[(i0 + r) * ldc + j0..][..jw];
                                scratch[r * nr..r * nr + jw].copy_from_slice(row);
                            }
                            // SAFETY: scratch holds MR·NR ≤ MAX_TILE
                            // floats; panels as above.
                            unsafe {
                                K::run(apanel, bpanel, kcb, scratch.as_mut_ptr(), nr);
                            }
                            for r in 0..iw {
                                let row = &mut out[(i0 + r) * ldc + j0..][..jw];
                                row.copy_from_slice(&scratch[r * nr..r * nr + jw]);
                            }
                        }
                    }
                }
                // Keep bands panel-aligned: advance by whole panels.
                ic += band_pan * mr;
            }
            pc += kcb;
        }
        jc += ncb;
    }
}

// ------------------------------------------------------------ entry points

/// One thread's share of a packed GEMM on a chosen ISA and explicit
/// tile configuration: packs this thread's A rows and the B blocks into
/// thread-local buffers and runs the blocked driver. `out` holds `m`
/// rows × `n` cols at stride `ldc`.
#[allow(clippy::too_many_arguments)] // explicit (isa, tiles, shape, out, sources) plumbing
pub(crate) fn gemm_with_tiles(
    isa: Isa,
    tiles: Tiles,
    m: usize,
    kdim: usize,
    n: usize,
    out: &mut [f32],
    ldc: usize,
    a_at: impl Fn(usize, usize) -> f32,
    b_src: BSrc<'_>,
) {
    if m == 0 || n == 0 || kdim == 0 {
        return;
    }
    WS.with(|ws| {
        let ws = &mut *ws.borrow_mut();
        dispatch_kernel!(isa, m, n, K => {
            pack_a_all(K::MR, m, kdim, tiles.kc, &a_at, &mut ws.apack);
            drive_packed::<K>(
                m, kdim, n, out, ldc, tiles, &ws.apack, &mut ws.bpack, b_src,
            );
        });
    });
}

/// [`gemm_with_tiles`] with the dispatcher's tile choice.
#[allow(clippy::too_many_arguments)] // explicit (isa, shape, out, sources) plumbing
pub(crate) fn gemm_on(
    isa: Isa,
    m: usize,
    kdim: usize,
    n: usize,
    out: &mut [f32],
    ldc: usize,
    a_at: impl Fn(usize, usize) -> f32,
    b_src: BSrc<'_>,
) {
    gemm_with_tiles(
        isa,
        tiles_for(m, kdim, n),
        m,
        kdim,
        n,
        out,
        ldc,
        a_at,
        b_src,
    );
}

/// [`gemm_on`] on the best ISA this CPU supports.
pub(crate) fn gemm(
    m: usize,
    kdim: usize,
    n: usize,
    out: &mut [f32],
    ldc: usize,
    a_at: impl Fn(usize, usize) -> f32,
    b_src: BSrc<'_>,
) {
    gemm_on(native_isa(), m, kdim, n, out, ldc, a_at, b_src);
}

// ------------------------------------------------------------ conv staging

use crate::{backend::for_row_chunks, im2col::Conv2dGeometry};

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
fn conv_shape(batch: usize, c_out: usize, geo: &Conv2dGeometry) -> Option<ConvShape> {
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
struct Staging {
    /// `[g, c_in, h + 2·pad, w + 2·pad]`, borders zero.
    buf: Vec<f32>,
    /// Per folded output column `(s, oy, ox)`: its patch's corner in `buf`.
    base: Vec<u32>,
    /// Per im2col row `(c, ky, kx)`: that tap's offset from the corner.
    row_off: Vec<u32>,
}

/// Refills an offset table through checked `usize → u32` conversions.
fn fill_offsets(tab: &mut Vec<u32>, field: &str, offsets: impl Iterator<Item = usize>) {
    let checked = |v| {
        u32::try_from(v)
            .unwrap_or_else(|_| panic!("conv lowering: `{field}` offset {v} exceeds u32"))
    };
    tab.clear();
    tab.extend(offsets.map(checked));
}

impl Staging {
    /// Zeroes the staging and builds the tables for groups of `g`.
    fn prepare(&mut self, geo: &Conv2dGeometry, g: usize) {
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
    fn stage(&mut self, geo: &Conv2dGeometry, imgs: &[f32]) {
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

// ---------------------------------------------------------- direct kernels

/// Lanes of one direct-kernel vector: 16 consecutive elements of a
/// `(sample, channel)` plane read in place, or one pixel of 16 samples
/// staged sample-innermost.
const LANES: usize = 16;

/// The lane operations the direct kernels are written against, for one
/// [`LANES`]-wide vector: one `zmm`, two `ymm`, or sixteen scalars.
/// Masked-off lanes are never dereferenced. The methods use their ISA's
/// instructions unchecked: a vector type is only used inside the
/// [`direct_vectors`] instances compiled for its ISA.
trait Lanes: Copy {
    /// A lane mask in the form the ISA's masked loads take.
    type Mask: Copy;
    /// Converts lane bits (bit `l` = lane `l`).
    fn mask(bits: u16) -> Self::Mask;
    /// All lanes `+0.0`.
    fn zero() -> Self;
    /// All lanes `*p`.
    unsafe fn splat(p: *const f32) -> Self;
    /// `p[l]` on the masked lanes, `+0.0` elsewhere.
    unsafe fn load(p: *const f32, m: Self::Mask) -> Self;
    /// `fma(a, b, c)` per lane.
    fn fma(a: Self, b: Self, c: Self) -> Self;
    /// `a + b` per lane.
    fn add(a: Self, b: Self) -> Self;
    /// `a[l] + t[l]` on the masked lanes, `a[l]` elsewhere.
    fn add_masked(a: Self, t: Self, m: Self::Mask) -> Self;
    /// Lane bits of the lanes that are `±0.0`.
    fn zeros(a: Self) -> u16;
    /// `p[l] = v[l]` on the masked lanes only.
    unsafe fn store(p: *mut f32, m: Self::Mask, v: Self);
}

#[cfg(target_arch = "x86_64")]
mod lanes_x86 {
    use super::Lanes;
    use std::arch::x86_64::*;

    /// One `zmm`; the mask is the `k` register itself.
    #[derive(Clone, Copy)]
    pub(super) struct Zmm(__m512);

    impl Lanes for Zmm {
        type Mask = __mmask16;
        #[inline(always)]
        fn mask(bits: u16) -> __mmask16 {
            bits
        }
        #[inline(always)]
        fn zero() -> Self {
            Zmm(unsafe { _mm512_setzero_ps() })
        }
        #[inline(always)]
        unsafe fn splat(p: *const f32) -> Self {
            Zmm(unsafe { _mm512_set1_ps(*p) })
        }
        #[inline(always)]
        unsafe fn load(p: *const f32, m: __mmask16) -> Self {
            Zmm(unsafe { _mm512_maskz_loadu_ps(m, p) })
        }
        #[inline(always)]
        fn fma(a: Self, b: Self, c: Self) -> Self {
            Zmm(unsafe { _mm512_fmadd_ps(a.0, b.0, c.0) })
        }
        #[inline(always)]
        fn add(a: Self, b: Self) -> Self {
            Zmm(unsafe { _mm512_add_ps(a.0, b.0) })
        }
        #[inline(always)]
        fn add_masked(a: Self, t: Self, m: __mmask16) -> Self {
            Zmm(unsafe { _mm512_mask_add_ps(a.0, m, a.0, t.0) })
        }
        #[inline(always)]
        fn zeros(a: Self) -> u16 {
            unsafe { _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(a.0, _mm512_setzero_ps()) }
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, m: __mmask16, v: Self) {
            unsafe { _mm512_mask_storeu_ps(p, m, v.0) }
        }
    }

    /// Two `ymm` halves; the mask is one sign-bit vector per half.
    #[derive(Clone, Copy)]
    pub(super) struct Ymm2(__m256, __m256);

    impl Lanes for Ymm2 {
        type Mask = (__m256i, __m256i);
        #[inline(always)]
        fn mask(bits: u16) -> Self::Mask {
            unsafe {
                let b = _mm256_set1_epi32(bits as i32);
                let lo = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
                let hi = _mm256_slli_epi32::<8>(lo);
                let lane = |sel| _mm256_cmpeq_epi32(_mm256_and_si256(b, sel), sel);
                (lane(lo), lane(hi))
            }
        }
        #[inline(always)]
        fn zero() -> Self {
            unsafe { Ymm2(_mm256_setzero_ps(), _mm256_setzero_ps()) }
        }
        #[inline(always)]
        unsafe fn splat(p: *const f32) -> Self {
            unsafe {
                let v = _mm256_set1_ps(*p);
                Ymm2(v, v)
            }
        }
        #[inline(always)]
        unsafe fn load(p: *const f32, m: Self::Mask) -> Self {
            unsafe {
                Ymm2(
                    _mm256_maskload_ps(p, m.0),
                    _mm256_maskload_ps(p.wrapping_add(8), m.1),
                )
            }
        }
        #[inline(always)]
        fn fma(a: Self, b: Self, c: Self) -> Self {
            unsafe {
                Ymm2(
                    _mm256_fmadd_ps(a.0, b.0, c.0),
                    _mm256_fmadd_ps(a.1, b.1, c.1),
                )
            }
        }
        #[inline(always)]
        fn add(a: Self, b: Self) -> Self {
            unsafe { Ymm2(_mm256_add_ps(a.0, b.0), _mm256_add_ps(a.1, b.1)) }
        }
        #[inline(always)]
        fn add_masked(a: Self, t: Self, m: Self::Mask) -> Self {
            unsafe {
                let half =
                    |a, t, m| _mm256_blendv_ps(a, _mm256_add_ps(a, t), _mm256_castsi256_ps(m));
                Ymm2(half(a.0, t.0, m.0), half(a.1, t.1, m.1))
            }
        }
        #[inline(always)]
        fn zeros(a: Self) -> u16 {
            unsafe {
                let z = |h| _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_EQ_OQ>(h, _mm256_setzero_ps()));
                (z(a.0) | z(a.1) << 8) as u16
            }
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, m: Self::Mask, v: Self) {
            unsafe {
                _mm256_maskstore_ps(p, m.0, v.0);
                _mm256_maskstore_ps(p.wrapping_add(8), m.1, v.1);
            }
        }
    }
}

/// Sixteen scalars on `f32::mul_add` — the same correctly rounded
/// operations the vector lanes perform.
#[derive(Clone, Copy)]
struct Portable16([f32; LANES]);

impl Lanes for Portable16 {
    type Mask = u16;
    #[inline(always)]
    fn mask(bits: u16) -> u16 {
        bits
    }
    #[inline(always)]
    fn zero() -> Self {
        Portable16([0.0; LANES])
    }
    #[inline(always)]
    unsafe fn splat(p: *const f32) -> Self {
        Portable16([unsafe { *p }; LANES])
    }
    #[inline(always)]
    unsafe fn load(p: *const f32, m: u16) -> Self {
        Portable16(std::array::from_fn(|l| {
            if m >> l & 1 == 1 {
                unsafe { *p.wrapping_add(l) }
            } else {
                0.0
            }
        }))
    }
    #[inline(always)]
    fn fma(a: Self, b: Self, c: Self) -> Self {
        Portable16(std::array::from_fn(|l| a.0[l].mul_add(b.0[l], c.0[l])))
    }
    #[inline(always)]
    fn add(a: Self, b: Self) -> Self {
        Portable16(std::array::from_fn(|l| a.0[l] + b.0[l]))
    }
    #[inline(always)]
    fn add_masked(a: Self, t: Self, m: u16) -> Self {
        Portable16(std::array::from_fn(|l| {
            if m >> l & 1 == 1 {
                a.0[l] + t.0[l]
            } else {
                a.0[l]
            }
        }))
    }
    #[inline(always)]
    fn zeros(a: Self) -> u16 {
        (0..LANES).fold(0, |b, l| b | u16::from(a.0[l] == 0.0) << l)
    }
    #[inline(always)]
    unsafe fn store(p: *mut f32, m: u16, v: Self) {
        for (l, &x) in v.0.iter().enumerate() {
            if m >> l & 1 == 1 {
                unsafe { *p.wrapping_add(l) = x };
            }
        }
    }
}

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

    /// Runs [`direct_vectors`] on `isa`.
    ///
    /// # Safety
    ///
    /// As [`Direct::block`], for every vector of `samples` samples.
    unsafe fn run(
        self,
        isa: Isa,
        lay: &DirectLayout,
        dst: *mut f32,
        src: *const f32,
        samples: usize,
    );
}

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

/// Defines `$name` as [`direct_vectors`] of `$kernel` over `$lanes`, `$cm`
/// channels × `$nv` vectors, compiled with `$feature` enabled.
macro_rules! direct_vectors_for {
    ($name:ident, $kernel:ident, $lanes:ty, $cm:literal, $nv:literal, $feature:literal) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $feature)]
        unsafe fn $name(
            k: $kernel,
            lay: &DirectLayout,
            dst: *mut f32,
            src: *const f32,
            samples: usize,
        ) {
            unsafe { direct_vectors::<$lanes, $kernel, $cm, $nv>(k, lay, dst, src, samples) }
        }
    };
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
            // chunk's samples; `isa` is one the CPU supports.
            unsafe { k.run(isa, &in_place, chunk.as_mut_ptr(), src.as_ptr(), samples) };
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
            unsafe { k.run(isa, &lay, d_t.as_mut_ptr(), s_t.as_ptr(), 1) };
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

    unsafe fn run(
        self,
        isa: Isa,
        lay: &DirectLayout,
        dx: *mut f32,
        grad: *const f32,
        samples: usize,
    ) {
        // SAFETY: the caller's contract; each instance is chosen by `isa`,
        // which the caller verified the CPU supports.
        unsafe {
            match isa {
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512 => dx_vectors_avx512(self, lay, dx, grad, samples),
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2 => dx_vectors_avx2(self, lay, dx, grad, samples),
                _ => direct_vectors::<Portable16, Self, 4, 1>(self, lay, dx, grad, samples),
            }
        }
    }
}

// 4 channels × 3 vectors: 12 chains + 12 accumulators + 3 gradient
// vectors + 1 weight = 28 of 32 zmm.
direct_vectors_for!(dx_vectors_avx512, DxKernel, lanes_x86::Zmm, 4, 3, "avx512f");
// 3 channels × one vector of two halves: 6 + 6 + 2 + 1 = 15 of 16 ymm.
direct_vectors_for!(dx_vectors_avx2, DxKernel, lanes_x86::Ymm2, 3, 1, "avx2,fma");

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

    unsafe fn run(
        self,
        isa: Isa,
        lay: &DirectLayout,
        out: *mut f32,
        x: *const f32,
        samples: usize,
    ) {
        // SAFETY: the caller's contract; each instance is chosen by `isa`,
        // which the caller verified the CPU supports.
        unsafe {
            match isa {
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512 => fwd_vectors_avx512(self, lay, out, x, samples),
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2 => fwd_vectors_avx2(self, lay, out, x, samples),
                _ => direct_vectors::<Portable16, Self, 4, 1>(self, lay, out, x, samples),
            }
        }
    }
}

// 12 channels × 2 vectors: 24 accumulators + 2 input vectors; the weight
// broadcasts are memory operands of the FMAs.
direct_vectors_for!(
    fwd_vectors_avx512,
    FwdKernel,
    lanes_x86::Zmm,
    12,
    2,
    "avx512f"
);
// 6 channels × one vector of two halves: 12 + 2 + 1 weight = 15 of 16 ymm.
direct_vectors_for!(
    fwd_vectors_avx2,
    FwdKernel,
    lanes_x86::Ymm2,
    6,
    1,
    "avx2,fma"
);

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

// ------------------------------------------------ broadcast weight gradient

/// One fold group of the broadcast weight gradient: the staged images,
/// each folded column's patch corner and each tap's offset from it (the
/// [`Staging`] tables), and the channel-innermost operands — `gt[j][co]`
/// and `dwt[p][co]`, rows `ld` floats apart.
#[derive(Clone, Copy)]
struct DwKernel<'a> {
    buf: &'a [f32],
    base: &'a [u32],
    row_off: &'a [u32],
    ld: usize,
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

/// Defines `$name` as [`dw_vectors`] over `$lanes` with `$nv` vectors
/// abreast at most and the tile heights `$p`, compiled with `$feature`.
macro_rules! dw_vectors_for {
    ($name:ident, $lanes:ty, $nv:literal, [$($p:literal),*], $feature:literal) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $feature)]
        unsafe fn $name(k: DwKernel, gt: *const f32, dwt: *mut f32) {
            unsafe { dw_vectors::<$lanes, $nv, $($p),*>(k, gt, dwt) }
        }
    };
}

// One vector: 24 accumulators + 1 gradient vector; two: 24 + 2; three:
// 27 + 3 of 32 zmm. The image factors are memory operands of the FMAs.
dw_vectors_for!(dw_vectors_avx512, lanes_x86::Zmm, 3, [9, 9, 7], "avx512f");
// One vector of two halves: 12 accumulators + 2 + 1 broadcast of 16 ymm.
dw_vectors_for!(dw_vectors_avx2, lanes_x86::Ymm2, 1, [6, 6, 6], "avx2,fma");

impl DwKernel<'_> {
    /// Runs [`dw_vectors`] on `isa`.
    ///
    /// # Safety
    ///
    /// As [`dw_tile`], for every vector of `k.ld` and every tap; `isa` must
    /// be one the CPU supports.
    unsafe fn run(self, isa: Isa, gt: *const f32, dwt: *mut f32) {
        // SAFETY: the caller's contract.
        unsafe {
            match isa {
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512 => dw_vectors_avx512(self, gt, dwt),
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2 => dw_vectors_avx2(self, gt, dwt),
                _ => dw_vectors::<Portable16, 1, 4, 4, 4>(self, gt, dwt),
            }
        }
    }
}

/// `dst[c·ld_dst + r] = src[r·ld_src + c]` for `c < cols` and `r < width`
/// (`≥ rows`), `+0.0` for `r ≥ rows`: the transpose of `src` with its rows
/// padded to `width`. It moves 8×8 blocks (register shuffles on the x86
/// SIMD ISAs), so one block's rows stay in L1 however far apart they are,
/// and it moves bits only.
#[allow(clippy::too_many_arguments)]
fn transpose(
    isa: Isa,
    src: &[f32],
    ld_src: usize,
    dst: &mut [f32],
    ld_dst: usize,
    rows: usize,
    cols: usize,
    width: usize,
) {
    let simd = cfg!(target_arch = "x86_64") && isa != Isa::Portable;
    for r0 in (0..width).step_by(8) {
        let (rn, wn) = (rows.saturating_sub(r0).min(8), (width - r0).min(8));
        for c0 in (0..cols).step_by(8) {
            let cn = (cols - c0).min(8);
            let s = if rn > 0 {
                &src[r0 * ld_src + c0..][..(rn - 1) * ld_src + cn]
            } else {
                &[]
            };
            let d = &mut dst[c0 * ld_dst + r0..][..(cn - 1) * ld_dst + wn];
            if simd {
                // SAFETY: `s` / `d` hold the block's rows and columns; both
                // x86 SIMD ISAs include AVX.
                #[cfg(target_arch = "x86_64")]
                unsafe {
                    x86::transpose8(s.as_ptr(), ld_src, d.as_mut_ptr(), ld_dst, rn, cn, wn)
                };
                continue;
            }
            for c in 0..cn {
                for r in 0..wn {
                    d[c * ld_dst + r] = if r < rn { s[r * ld_src + c] } else { 0.0 };
                }
            }
        }
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
                // `isa` is one the CPU supports.
                unsafe { k.run(isa, gt.as_ptr(), dwt.as_mut_ptr()) };
            }
            transpose(isa, dwt, ld, chunk, rows, rows, r1 - r0, rows);
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{lowered_conv2d_backward_input, lowered_conv2d_forward};
    use crate::backend::{Backend, Parallel, Scalar};
    use crate::test_support::arb;

    /// The canonical chain evaluated literally: one in-order `mul_add`
    /// fold per output element, starting from the caller's `out`.
    fn reference_gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, kdim: usize, n: usize) {
        for i in 0..m {
            for j in 0..n {
                let mut c = out[i * n + j];
                for p in 0..kdim {
                    c = a[i * kdim + p].mul_add(b[p * n + j], c);
                }
                out[i * n + j] = c;
            }
        }
    }

    fn rows_src(b: &[f32], n: usize) -> impl Fn(usize, usize, &mut [f32]) + '_ {
        move |p, j0, dst: &mut [f32]| {
            let w = dst.len();
            dst.copy_from_slice(&b[p * n + j0..p * n + j0 + w]);
        }
    }

    /// Every ISA the CPU can run produces bit-identical results, equal to
    /// the literal canonical chain — including ragged/skinny shapes that
    /// exercise the scratch-tile edge path and every kernel variant.
    #[test]
    fn cross_isa_bitwise_equal_to_canonical_chain() {
        let shapes = [
            (13, 37, 29),
            (1, 5, 1),
            (12, 32, 32),
            (64, 64, 64),
            (3, 1, 47),
            (40, 200, 9),
            (130, 300, 520),
        ];
        for &(m, kdim, n) in &shapes {
            let a = arb(m * kdim, 11);
            let b = arb(kdim * n, 22);
            let init = arb(m * n, 33);
            let mut want = init.clone();
            reference_gemm(&a, &b, &mut want, m, kdim, n);
            for isa in available_isas() {
                let mut got = init.clone();
                gemm_on(
                    isa,
                    m,
                    kdim,
                    n,
                    &mut got,
                    n,
                    |i, p| a[i * kdim + p],
                    BSrc::Rows(&rows_src(&b, n)),
                );
                assert_eq!(got, want, "isa {isa:?} shape {m}x{kdim}x{n}");
            }
        }
    }

    /// Tile configuration must not affect a single bit of the result.
    #[test]
    fn tile_config_bitwise_invariant() {
        let (m, kdim, n) = (50, 300, 70);
        let a = arb(m * kdim, 44);
        let b = arb(kdim * n, 55);
        let init = arb(m * n, 66);
        let mut want = init.clone();
        reference_gemm(&a, &b, &mut want, m, kdim, n);
        for tiles in [
            Tiles {
                mc: 8,
                kc: 16,
                nc: 16,
            },
            Tiles {
                mc: 128,
                kc: 256,
                nc: 512,
            },
            Tiles {
                mc: 37,
                kc: 90,
                nc: 33,
            },
            Tiles {
                mc: 4,
                kc: 512,
                nc: 32,
            },
        ] {
            let mut got = init.clone();
            gemm_with_tiles(
                native_isa(),
                tiles,
                m,
                kdim,
                n,
                &mut got,
                n,
                |i, p| a[i * kdim + p],
                BSrc::Rows(&rows_src(&b, n)),
            );
            assert_eq!(got, want, "tiles {tiles:?}");
        }
    }

    /// `BSrc::Cols` packing (transposed source) fills panels with the
    /// same bits as `BSrc::Rows`, so results match exactly.
    #[test]
    fn cols_packing_matches_rows_packing() {
        let (m, kdim, n) = (21, 600, 37);
        let a = arb(m * kdim, 7);
        let b = arb(kdim * n, 8);
        // bt[j][p] = b[p][j]: the transposed-source view Cols reads.
        let mut bt = vec![0.0f32; n * kdim];
        for p in 0..kdim {
            for j in 0..n {
                bt[j * kdim + p] = b[p * n + j];
            }
        }
        let init = arb(m * n, 9);
        let mut want = init.clone();
        gemm(
            m,
            kdim,
            n,
            &mut want,
            n,
            |i, p| a[i * kdim + p],
            BSrc::Rows(&rows_src(&b, n)),
        );
        let mut got = init.clone();
        gemm(
            m,
            kdim,
            n,
            &mut got,
            n,
            |i, p| a[i * kdim + p],
            BSrc::Cols(&rows_src(&bt, kdim)),
        );
        assert_eq!(got, want);
    }

    /// The canonical conv chains evaluated literally on materialized
    /// `cols`, from the given non-zero destinations: `(out, dw, dx)`.
    #[allow(clippy::too_many_arguments)]
    fn reference_conv(
        x: &[f32],
        w: &[f32],
        g: &[f32],
        batch: usize,
        c_out: usize,
        geo: &Conv2dGeometry,
        mut out: Vec<f32>,
        mut dw: Vec<f32>,
        mut dx: Vec<f32>,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let (rows, n_cols) = (geo.col_rows(), geo.col_cols());
        let img_len = geo.c_in * geo.h * geo.w;
        reference_dw(x, g, &mut dw, batch, c_out, geo);
        let mut cols = vec![0.0f32; rows * n_cols];
        for s in 0..batch {
            crate::im2col::im2col(&x[s * img_len..][..img_len], geo, &mut cols);
            let g_s = &g[s * c_out * n_cols..][..c_out * n_cols];
            // Forward: out[s] += W · cols_s.
            let out_s = &mut out[s * c_out * n_cols..][..c_out * n_cols];
            reference_gemm(w, &cols, out_s, c_out, rows, n_cols);
            // dX: dcols = Wᵀ·g_s chain from zero, then col2im.
            for r in 0..rows {
                for q in 0..n_cols {
                    let mut c = 0.0f32;
                    for p in 0..c_out {
                        c = w[p * rows + r].mul_add(g_s[p * n_cols + q], c);
                    }
                    cols[r * n_cols + q] = c;
                }
            }
            crate::im2col::col2im(&cols, geo, &mut dx[s * img_len..][..img_len]);
        }
        (out, dw, dx)
    }

    /// `Parallel`'s conv forward / dW / dX entry points equal the
    /// materialized-`cols` canonical chains bit for bit, accumulating into
    /// non-zero destinations, on every route (direct, lowered, broadcast)
    /// and across the dW fold edges: one sample, a ragged last group (5,
    /// 33), `n_cols` 1 to 256, stride 2, pad ≥ k, 1–3 kernel threads.
    #[test]
    fn fused_conv_matches_materialized_chain() {
        let geo = |c_in, h, w, k, stride, pad| Conv2dGeometry {
            c_in,
            h,
            w,
            k,
            stride,
            pad,
        };
        for geo in [
            geo(1, 1, 1, 1, 1, 0),   // n_cols 1, consecutive staging offsets
            geo(3, 3, 3, 3, 1, 0),   // n_cols 1
            geo(3, 2, 2, 3, 1, 1),   // n_cols 4
            geo(2, 3, 3, 3, 1, 1),   // n_cols 9
            geo(2, 9, 7, 3, 2, 0),   // n_cols 12, stride 2
            geo(3, 4, 4, 3, 1, 1),   // n_cols 16
            geo(2, 8, 8, 3, 2, 1),   // n_cols 16, stride 2
            geo(2, 2, 2, 1, 1, 2),   // n_cols 36, pad > k
            geo(2, 8, 8, 3, 1, 1),   // n_cols 64
            geo(2, 16, 16, 3, 1, 1), // n_cols 256
        ] {
            for batch in [1usize, 5, 32, 33] {
                let c_out = 5usize;
                let (rows, n_cols) = (geo.col_rows(), geo.col_cols());
                let img_len = geo.c_in * geo.h * geo.w;
                let x = arb(batch * img_len, 1);
                let w = arb(c_out * rows, 2);
                let g = arb(batch * c_out * n_cols, 3);
                let init = (
                    arb(batch * c_out * n_cols, 4),
                    arb(c_out * rows, 5),
                    arb(batch * img_len, 6),
                );
                let (out0, dw0, dx0) = init.clone();
                let want = reference_conv(&x, &w, &g, batch, c_out, &geo, out0, dw0, dx0);
                for threads in [1, 2, 3] {
                    let be = Parallel::with_threads(threads);
                    let (mut out, mut dw, mut dx) = init.clone();
                    let mut ws = Vec::new();
                    be.conv2d_forward(&x, &w, None, &mut out, batch, c_out, &geo, &mut ws);
                    be.conv2d_backward_weights(&x, &g, &mut dw, batch, c_out, &geo, &mut ws);
                    be.conv2d_backward_input(&w, &g, &mut dx, batch, c_out, &geo, &mut ws);
                    let what = format!("{geo:?} batch {batch} threads {threads}");
                    assert_eq!(out, want.0, "forward {what}");
                    assert_eq!(dw, want.1, "dW {what}");
                    assert_eq!(dx, want.2, "dX {what}");
                }
            }
        }
    }

    /// Bitwise equality with NaN compared as NaN (payloads may differ
    /// between instruction sets).
    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            let same = a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
            assert!(
                same,
                "{what}[{i}]: {a:?} ({:#x}) vs {b:?} ({:#x})",
                a.to_bits(),
                b.to_bits()
            );
        }
    }

    /// The direct dX kernel against the GEMM + `col2im` lowering on
    /// `Parallel` (the canonical chain) on every ISA the CPU runs, at 1, 2
    /// and 4 threads, accumulating into `dx0`.
    #[allow(clippy::too_many_arguments)]
    fn check_direct_dx(
        geo: &Conv2dGeometry,
        batch: usize,
        c_out: usize,
        w: &[f32],
        g: &[f32],
        dx0: &[f32],
        what: &str,
    ) {
        let mut want = dx0.to_vec();
        let one = Parallel::with_threads(1);
        lowered_conv2d_backward_input(&one, w, g, &mut want, batch, c_out, geo, &mut Vec::new());
        for isa in available_isas() {
            for threads in [1, 2, 4] {
                let mut got = dx0.to_vec();
                conv2d_backward_input_direct(isa, w, g, &mut got, batch, c_out, geo, threads);
                assert_same_bits(&got, &want, &format!("{what} {isa:?} threads {threads}"));
            }
        }
    }

    /// Stride-1 geometries: every `k ∈ {1, 3, 5}` × `pad ∈ {0, 1, 2}` over
    /// planes from 1×1 to 19×19 (under 16 elements, not a multiple of 16,
    /// rows wider than the output and narrower), channel counts 1–50
    /// that leave every channel-tile tail, batches 1–5 (two thread chunks
    /// at 5) and 17 / 33 (short sample-innermost lane groups).
    #[test]
    fn conv_dx_direct_matches_lowering() {
        const CH: [usize; 9] = [1, 2, 3, 4, 5, 7, 12, 17, 50];
        let planes = [
            (1, 1),
            (2, 2),
            (3, 5),
            (4, 4),
            (5, 3),
            (7, 9),
            (8, 8),
            (15, 17),
            (16, 16),
            (19, 19),
            (1, 19),
            (19, 1),
        ];
        let mut case = 0usize;
        for k in [1, 3, 5] {
            for pad in [0, 1, 2] {
                for &(h, w) in &planes {
                    if h + 2 * pad < k || w + 2 * pad < k {
                        continue;
                    }
                    case += 1;
                    let (c_in, c_out) = (CH[case * 7 % 9], CH[(case * 5 + 3) % 9]);
                    let batch = match case % 11 {
                        5 if h * w < 16 => 33,
                        7 => 17,
                        n => 1 + n % 5,
                    };
                    let geo = Conv2dGeometry {
                        c_in,
                        h,
                        w,
                        k,
                        stride: 1,
                        pad,
                    };
                    let n_cols = geo.col_cols();
                    let wt = arb(c_out * geo.col_rows(), case as u64);
                    let g = arb(batch * c_out * n_cols, 100 + case as u64);
                    let dx0 = arb(batch * c_in * h * w, 200 + case as u64);
                    check_direct_dx(
                        &geo,
                        batch,
                        c_out,
                        &wt,
                        &g,
                        &dx0,
                        &format!("{geo:?} b{batch} co{c_out}"),
                    );
                }
            }
        }
        assert!(case > 90, "{case} geometries");
    }

    /// The four Medium stages at the training batch, where the in-place
    /// and sample-innermost layouts are each chosen.
    #[test]
    fn conv_dx_medium_stages() {
        for (c_in, c_out, hw) in [(3, 12, 16), (12, 24, 8), (24, 32, 4), (32, 48, 2)] {
            let geo = Conv2dGeometry {
                c_in,
                h: hw,
                w: hw,
                k: 3,
                stride: 1,
                pad: 1,
            };
            let batch = 32;
            let wt = arb(c_out * geo.col_rows(), 1);
            let g = arb(batch * c_out * hw * hw, 2);
            let dx0 = vec![0.0f32; batch * c_in * hw * hw];
            check_direct_dx(
                &geo,
                batch,
                c_out,
                &wt,
                &g,
                &dx0,
                &format!("{c_in}->{c_out}@{hw}"),
            );
        }
    }

    /// Padding taps are masked, never computed as zeros: a `-0.0` in the
    /// incoming `dx` and ±inf / NaN weights and gradients give the
    /// lowering's bits (a zero-padded tap would turn `-0.0` into `+0.0`
    /// and `inf · 0` into NaN at the borders).
    #[test]
    fn conv_dx_special_values() {
        let specials = |n: usize, seed: u64, every: usize, vals: &[f32]| {
            let mut v = arb(n, seed);
            for (i, x) in v.iter_mut().enumerate().filter(|(i, _)| i % every == 3) {
                *x = vals[i / every % vals.len()];
            }
            v
        };
        for (c_in, c_out, h, w, k, pad, batch) in [
            (3, 12, 16, 16, 3, 1, 5),
            (5, 7, 4, 4, 3, 1, 3),
            (32, 48, 2, 2, 3, 1, 20),
            (4, 3, 7, 9, 5, 2, 2),
            (2, 17, 19, 5, 3, 0, 4),
            (6, 5, 3, 3, 1, 2, 5),
        ] {
            let geo = Conv2dGeometry {
                c_in,
                h,
                w,
                k,
                stride: 1,
                pad,
            };
            let inf = f32::INFINITY;
            let wt = specials(c_out * geo.col_rows(), 1, 37, &[inf, -inf, f32::NAN]);
            let g = specials(
                batch * c_out * geo.col_cols(),
                2,
                41,
                &[-inf, f32::NAN, inf],
            );
            let dx0 = specials(batch * c_in * h * w, 3, 3, &[-0.0]);
            check_direct_dx(
                &geo,
                batch,
                c_out,
                &wt,
                &g,
                &dx0,
                &format!("{geo:?} specials"),
            );
            // Finite weights and gradients: only the signed zeros remain.
            let wt = arb(c_out * geo.col_rows(), 4);
            let g = vec![0.0f32; batch * c_out * geo.col_cols()];
            let dx0 = vec![-0.0f32; batch * c_in * h * w];
            check_direct_dx(&geo, batch, c_out, &wt, &g, &dx0, &format!("{geo:?} -0.0"));
        }
    }

    /// The direct forward against the `im2col` + GEMM lowering on
    /// `Parallel` (the canonical chain) on every ISA the CPU runs, at 1, 2
    /// and 4 threads, accumulating into `out0`.
    #[allow(clippy::too_many_arguments)]
    fn check_direct_fwd(
        geo: &Conv2dGeometry,
        batch: usize,
        c_out: usize,
        w: &[f32],
        x: &[f32],
        bias: Option<&[f32]>,
        out0: &[f32],
        what: &str,
    ) {
        let mut want = out0.to_vec();
        let one = Parallel::with_threads(1);
        lowered_conv2d_forward(
            &one,
            x,
            w,
            bias,
            &mut want,
            batch,
            c_out,
            geo,
            &mut Vec::new(),
        );
        for isa in available_isas() {
            for threads in [1, 2, 4] {
                let mut got = out0.to_vec();
                conv2d_forward_direct(isa, x, w, bias, &mut got, batch, c_out, geo, threads);
                assert_same_bits(&got, &want, &format!("{what} {isa:?} threads {threads}"));
            }
        }
    }

    /// `arb` with a `-0.0` in every third element: a non-zero initial
    /// `out` whose signed zeros a padding tap must not lose.
    fn out_with_neg_zeros(n: usize, seed: u64) -> Vec<f32> {
        let mut v = arb(n, seed);
        v.iter_mut().step_by(3).for_each(|o| *o = -0.0);
        v
    }

    /// Stride-1 geometries: every `k ∈ {1, 3, 5}` × `pad ∈ {0, 1, 2}` over
    /// planes from 1×1 to 19×19 (`w_out` equal to `w`, wider and
    /// narrower; planes under 16 elements, not a multiple of 16), channel
    /// counts 1–50 that leave every output-channel tile tail and short and
    /// long reductions, batches 1–5 (two thread chunks at 5) and 17 / 33
    /// (short sample-innermost lane groups), bias on and off.
    #[test]
    fn conv_fwd_direct_matches_lowering() {
        const CH: [usize; 10] = [1, 2, 3, 4, 5, 7, 12, 17, 32, 50];
        let planes = [
            (1, 1),
            (2, 2),
            (3, 5),
            (4, 4),
            (5, 3),
            (7, 9),
            (8, 8),
            (15, 17),
            (16, 16),
            (19, 19),
            (1, 19),
            (19, 1),
        ];
        let mut case = 0usize;
        for k in [1, 3, 5] {
            for pad in [0, 1, 2] {
                for &(h, w) in &planes {
                    if h + 2 * pad < k || w + 2 * pad < k {
                        continue;
                    }
                    case += 1;
                    let (c_in, c_out) = (CH[case * 7 % 10], CH[(case * 3 + 5) % 10]);
                    let batch = match case % 11 {
                        5 if h * w < 16 => 33,
                        7 => 17,
                        n => 1 + n % 5,
                    };
                    let geo = Conv2dGeometry {
                        c_in,
                        h,
                        w,
                        k,
                        stride: 1,
                        pad,
                    };
                    let out_len = batch * c_out * geo.col_cols();
                    let wt = arb(c_out * geo.col_rows(), case as u64);
                    let x = arb(batch * c_in * h * w, 100 + case as u64);
                    let bias = arb(c_out, 300 + case as u64);
                    let bias = case.is_multiple_of(2).then_some(&bias[..]);
                    let out0 = out_with_neg_zeros(out_len, 200 + case as u64);
                    let what = format!("{geo:?} b{batch} co{c_out} bias {}", bias.is_some());
                    check_direct_fwd(&geo, batch, c_out, &wt, &x, bias, &out0, &what);
                }
            }
        }
        assert!(case > 90, "{case} geometries");
    }

    /// The four Medium stages at the training and the validation batch,
    /// where the in-place and sample-innermost layouts are each chosen.
    #[test]
    fn conv_fwd_medium_stages() {
        for (c_in, c_out, hw) in [(3, 12, 16), (12, 24, 8), (24, 32, 4), (32, 48, 2)] {
            let geo = Conv2dGeometry {
                c_in,
                h: hw,
                w: hw,
                k: 3,
                stride: 1,
                pad: 1,
            };
            for batch in [32, 64] {
                let wt = arb(c_out * geo.col_rows(), 1);
                let x = arb(batch * c_in * hw * hw, 2);
                let bias = arb(c_out, 3);
                let out0 = vec![0.0f32; batch * c_out * hw * hw];
                let what = format!("{c_in}->{c_out}@{hw} b{batch}");
                check_direct_fwd(&geo, batch, c_out, &wt, &x, Some(&bias), &out0, &what);
            }
        }
    }

    /// ±inf / NaN in the weights and the input and `-0.0` in `out` give
    /// the lowering's bits: a padding tap is an FMA on a zero, so
    /// an infinite weight there makes NaN and a `-0.0` may turn `+0.0`.
    #[test]
    fn conv_fwd_special_values() {
        let specials = |n: usize, seed: u64, every: usize, vals: &[f32]| {
            let mut v = arb(n, seed);
            for (i, x) in v.iter_mut().enumerate().filter(|(i, _)| i % every == 3) {
                *x = vals[i / every % vals.len()];
            }
            v
        };
        for (c_in, c_out, h, w, k, pad, batch) in [
            (3, 12, 16, 16, 3, 1, 5),
            (5, 7, 4, 4, 3, 1, 3),
            (32, 48, 2, 2, 3, 1, 20),
            (4, 3, 7, 9, 5, 2, 2),
            (2, 17, 19, 5, 3, 0, 4),
            (6, 5, 3, 3, 1, 2, 5),
        ] {
            let geo = Conv2dGeometry {
                c_in,
                h,
                w,
                k,
                stride: 1,
                pad,
            };
            let (rows, out_len) = (geo.col_rows(), batch * c_out * geo.col_cols());
            let inf = f32::INFINITY;
            let wt = specials(c_out * rows, 1, 37, &[inf, -inf, f32::NAN]);
            let x = specials(batch * c_in * h * w, 2, 41, &[-inf, f32::NAN, inf]);
            let bias = arb(c_out, 4);
            let out0 = specials(out_len, 3, 3, &[-0.0]);
            for bias in [None, Some(&bias[..])] {
                let what = format!("{geo:?} specials bias {}", bias.is_some());
                check_direct_fwd(&geo, batch, c_out, &wt, &x, bias, &out0, &what);
            }
            // Finite values: only the signed zeros remain.
            let wt = arb(c_out * rows, 5);
            let x = vec![0.0f32; batch * c_in * h * w];
            let out0 = vec![-0.0f32; out_len];
            check_direct_fwd(
                &geo,
                batch,
                c_out,
                &wt,
                &x,
                None,
                &out0,
                &format!("{geo:?} -0.0"),
            );
        }
    }

    /// Skipping a tap whose lanes all read padding is exact only through
    /// its two guards. On the 2×2 stage (sample-innermost layout; each
    /// pixel reads 5 of its 9 taps from the padding) each case below
    /// breaks a tile that skips without them:
    /// * one infinite weight — the padding tap makes NaN;
    /// * `out = -0.0`, inputs `-0.0`, positive weights — every valid
    ///   product is `-0.0`, so only the padding taps' `+0.0` products turn
    ///   the chain `+0.0`;
    /// * `out = +0.0` and a valid product that underflows to `-0.0` before
    ///   a padding tap with a positive weight, then `-0.0` products.
    #[test]
    fn conv_fwd_skipped_taps_are_exact() {
        let geo = |c_in| Conv2dGeometry {
            c_in,
            h: 2,
            w: 2,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let (c_out, batch) = (5, 20);
        let g = geo(4);
        let mut wt: Vec<f32> = arb(c_out * g.col_rows(), 1);
        wt[2 * g.col_rows() + 9] = f32::INFINITY; // co 2, c 1, tap (0, 0)
        let x = arb(batch * 4 * 4, 2);
        let out0 = vec![0.0f32; batch * c_out * 4];
        check_direct_fwd(&g, batch, c_out, &wt, &x, None, &out0, "inf weight");

        let wt: Vec<f32> = arb(c_out * g.col_rows(), 3)
            .iter()
            .map(|v| v.abs())
            .collect();
        let x = vec![-0.0f32; batch * 4 * 4];
        let out0 = vec![-0.0f32; batch * c_out * 4];
        check_direct_fwd(&g, batch, c_out, &wt, &x, None, &out0, "-0.0 chains");

        // Pixel (0, 0) reads taps 4, 5, 7, 8; taps 0–3 and 6 are padding.
        let g = geo(1);
        let tiny = 1e-30f32;
        let wt1 = [1.0, 1.0, 1.0, 1.0, -tiny, -tiny, 1.0, -0.0, -0.0];
        let wt: Vec<f32> = wt1.iter().copied().cycle().take(c_out * 9).collect();
        let x = vec![tiny; batch * 4];
        let out0 = vec![0.0f32; batch * c_out * 4];
        check_direct_fwd(&g, batch, c_out, &wt, &x, None, &out0, "underflow to -0.0");
    }

    /// The weight-gradient oracle: `Scalar`'s lowering (`im2col` per
    /// sample) and the canonical chain evaluated literally, `dw[co, p] =
    /// fma(grad[s, co, q], cols_s[p, q], dw[co, p])` for `s`, then `q`,
    /// ascending. (`Scalar`'s own `matmul_nt` sums each sample from zero
    /// with a separate multiply and add: the same sum, not the same bits.)
    fn reference_dw(
        x: &[f32],
        g: &[f32],
        dw: &mut [f32],
        batch: usize,
        c_out: usize,
        geo: &Conv2dGeometry,
    ) {
        let (rows, n_cols) = (geo.col_rows(), geo.col_cols());
        let img_len = geo.c_in * geo.h * geo.w;
        let mut cols = vec![0.0f32; rows * n_cols];
        for s in 0..batch {
            crate::im2col::im2col(&x[s * img_len..][..img_len], geo, &mut cols);
            let g_s = &g[s * c_out * n_cols..][..c_out * n_cols];
            for (co, dw_co) in dw.chunks_exact_mut(rows).enumerate() {
                for (p, d) in dw_co.iter_mut().enumerate() {
                    for q in 0..n_cols {
                        *d = g_s[co * n_cols + q].mul_add(cols[p * n_cols + q], *d);
                    }
                }
            }
        }
    }

    /// The broadcast dW against [`reference_dw`] on every ISA the CPU
    /// runs, at 1, 2 and 4 threads, accumulating into `dw0`.
    fn check_dw(
        geo: &Conv2dGeometry,
        batch: usize,
        c_out: usize,
        x: &[f32],
        g: &[f32],
        dw0: &[f32],
        what: &str,
    ) -> Vec<f32> {
        let mut want = dw0.to_vec();
        reference_dw(x, g, &mut want, batch, c_out, geo);
        for threads in [1, 2, 4] {
            for isa in available_isas() {
                let mut got = dw0.to_vec();
                conv2d_backward_weights_broadcast(isa, x, g, &mut got, batch, c_out, geo, threads);
                assert_same_bits(&got, &want, &format!("{what} {isa:?} threads {threads}"));
            }
        }
        want
    }

    /// Every `k ∈ {1, 3, 5}` × stride `∈ {1, 2}` × `pad ∈ {0, 1, 2}` over
    /// planes from 1×1 to 19×19, `c_out ∈ {1, 5, 12, 17, 24, 48, 50}`
    /// (one, two, three and two-and-two channel vectors, and every lane
    /// tail once threads split the channels), `c_in` 1–7 (every tap-tile
    /// tail), batches 1–5 and 17 / 33 (a ragged last fold group), from a
    /// non-zero `dw`.
    #[test]
    fn conv_dw_matches_reference_chain() {
        const C_OUT: [usize; 7] = [1, 5, 12, 17, 24, 48, 50];
        let planes = [
            (1, 1),
            (2, 2),
            (3, 5),
            (4, 4),
            (5, 3),
            (7, 9),
            (8, 8),
            (15, 17),
            (19, 19),
            (1, 19),
            (19, 1),
        ];
        let mut case = 0usize;
        for k in [1, 3, 5] {
            for stride in [1, 2] {
                for pad in [0, 1, 2] {
                    for &(h, w) in &planes {
                        if h + 2 * pad < k || w + 2 * pad < k {
                            continue;
                        }
                        case += 1;
                        let (c_in, c_out) = (1 + case * 5 % 7, C_OUT[case % 7]);
                        let batch = match case % 11 {
                            5 if h * w < 16 => 33,
                            7 if h * w < 64 => 17,
                            n => 1 + n % 5,
                        };
                        let geo = Conv2dGeometry {
                            c_in,
                            h,
                            w,
                            k,
                            stride,
                            pad,
                        };
                        let x = arb(batch * c_in * h * w, case as u64);
                        let g = arb(batch * c_out * geo.col_cols(), 100 + case as u64);
                        let dw0 = arb(c_out * geo.col_rows(), 200 + case as u64);
                        let what = format!("{geo:?} b{batch} co{c_out}");
                        check_dw(&geo, batch, c_out, &x, &g, &dw0, &what);
                    }
                }
            }
        }
        assert!(case > 160, "{case} geometries");
    }

    /// The largest `dw` of the model zoo, 512→512@2² (512 × 512·3² =
    /// 2.4 M floats): the broadcast kernel gives the reference's bits over
    /// 4608 taps, and so does `Parallel`'s entry point.
    #[test]
    fn conv_dw_large_dw() {
        let geo = Conv2dGeometry {
            c_in: 512,
            h: 2,
            w: 2,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let (c_out, batch) = (512, 2);
        let x = arb(batch * 512 * 4, 1);
        let g = arb(batch * c_out * 4, 2);
        let dw0 = arb(c_out * geo.col_rows(), 3);
        let want = check_dw(&geo, batch, c_out, &x, &g, &dw0, "large dw");
        let mut got = dw0.clone();
        Parallel::with_threads(2).conv2d_backward_weights(
            &x,
            &g,
            &mut got,
            batch,
            c_out,
            &geo,
            &mut Vec::new(),
        );
        assert_same_bits(&got, &want, "large dw, entry point");
    }

    /// The four Medium stages at the training batch.
    #[test]
    fn conv_dw_medium_stages() {
        for (c_in, c_out, hw) in [(3, 12, 16), (12, 24, 8), (24, 32, 4), (32, 48, 2)] {
            let geo = Conv2dGeometry {
                c_in,
                h: hw,
                w: hw,
                k: 3,
                stride: 1,
                pad: 1,
            };
            let batch = 32;
            let x = arb(batch * c_in * hw * hw, 1);
            let g = arb(batch * c_out * hw * hw, 2);
            let dw0 = arb(c_out * geo.col_rows(), 3);
            check_dw(
                &geo,
                batch,
                c_out,
                &x,
                &g,
                &dw0,
                &format!("{c_in}->{c_out}@{hw}"),
            );
        }
    }

    /// ±inf / NaN in `x` and `grad` and `-0.0` in the incoming `dw`, at
    /// both strides and every pad, five channel vectors (three and two).
    #[test]
    fn conv_dw_special_values() {
        let specials = |n: usize, seed: u64, every: usize, vals: &[f32]| {
            let mut v = arb(n, seed);
            for (i, x) in v.iter_mut().enumerate().filter(|(i, _)| i % every == 3) {
                *x = vals[i / every % vals.len()];
            }
            v
        };
        let inf = f32::INFINITY;
        for (c_in, c_out, h, w, k, stride, pad, batch) in [
            (3, 12, 16, 16, 3, 1, 1, 3),
            (5, 7, 4, 4, 3, 1, 1, 3),
            (32, 48, 2, 2, 3, 1, 1, 20),
            (4, 3, 7, 9, 5, 2, 2, 2),
            (2, 17, 19, 5, 3, 2, 0, 4),
            (6, 70, 3, 3, 1, 1, 2, 5),
        ] {
            let geo = Conv2dGeometry {
                c_in,
                h,
                w,
                k,
                stride,
                pad,
            };
            let x = specials(batch * c_in * h * w, 1, 37, &[inf, -inf, f32::NAN]);
            let g = specials(
                batch * c_out * geo.col_cols(),
                2,
                41,
                &[-inf, f32::NAN, inf],
            );
            let dw0 = specials(c_out * geo.col_rows(), 3, 3, &[-0.0]);
            check_dw(
                &geo,
                batch,
                c_out,
                &x,
                &g,
                &dw0,
                &format!("{geo:?} specials"),
            );
        }
    }

    /// pad 1, k = 3: an output pixel's taps off the image read the border.
    const PADDED: Conv2dGeometry = Conv2dGeometry {
        c_in: 2,
        h: 5,
        w: 4,
        k: 3,
        stride: 1,
        pad: 1,
    };

    /// A padding tap is an FMA on the border's `+0.0`, never skipped: an
    /// infinite gradient at output (0, 0) makes `inf · 0 = NaN` in every
    /// tap that reads padding there (row 0 or column 0 of the kernel).
    #[test]
    fn conv_dw_padding_taps_make_nan() {
        let (geo, c_out, batch) = (PADDED, 3, 2);
        let (rows, n_cols) = (geo.col_rows(), geo.col_cols());
        let x = arb(batch * 2 * 5 * 4, 1);
        let mut g = arb(batch * c_out * n_cols, 2);
        g[n_cols] = f32::INFINITY; // sample 0, channel 1, output (0, 0)
        let dw = check_dw(&geo, batch, c_out, &x, &g, &vec![0.0; c_out * rows], "inf");
        for (i, &d) in dw.iter().enumerate() {
            let (co, p) = (i / rows, i % rows);
            let reads_padding = p % 9 < 3 || p % 3 == 0;
            assert_eq!(co == 1 && reads_padding, d.is_nan(), "co {co} tap {p}: {d}");
        }
    }

    /// From `dw = -0.0`, with `x = -0.0` and positive gradients every
    /// in-image product is `-0.0`, so only the padding products' `+0.0`
    /// turn a tap's chain `+0.0`: every tap but the centre one reads
    /// padding somewhere, and the centre one keeps `-0.0`.
    #[test]
    fn conv_dw_padding_taps_clear_negative_zero() {
        let (geo, c_out, batch) = (PADDED, 3, 2);
        let (rows, n_cols) = (geo.col_rows(), geo.col_cols());
        let x = vec![-0.0f32; batch * 2 * 5 * 4];
        let g: Vec<f32> = arb(batch * c_out * n_cols, 3)
            .iter()
            .map(|v| v.abs() + 0.5)
            .collect();
        let dw = check_dw(
            &geo,
            batch,
            c_out,
            &x,
            &g,
            &vec![-0.0; c_out * rows],
            "-0.0",
        );
        for (i, &d) in dw.iter().enumerate() {
            let p = i % rows;
            let want = if p % 9 == 4 { -0.0f32 } else { 0.0 };
            assert_eq!(d.to_bits(), want.to_bits(), "tap {p}: {d:?}");
        }
    }

    /// Fold groups shrink — down to one sample — rather than let an
    /// offset table outgrow `u32`, and a single sample that cannot be
    /// addressed fails by name instead of wrapping.
    #[test]
    fn fused_conv_fold_group_respects_u32_offsets() {
        let geo = |c_in, hw, stride| Conv2dGeometry {
            c_in,
            h: hw,
            w: hw,
            k: 3,
            stride,
            pad: 1,
        };
        let g = |batch, c_out, geo: Conv2dGeometry| conv_shape(batch, c_out, &geo).unwrap().4;
        assert_eq!(g(32, 48, geo(32, 2, 1)), 32); // Medium's last stage,
        assert_eq!(g(32, 24, geo(12, 8, 1)), 2); // its second
        assert_eq!(g(32, 12, geo(3, 16, 1)), 1); // and its first
        assert_eq!(g(32, 32, geo(3, 224, 2)), 1); // CNN4 stem

        // 2^30 padded floats per sample: 128/4 samples would need 2^35.
        assert_eq!(g(1000, 8, geo(1 << 26, 2, 1)), 3);
        let too_big = std::panic::catch_unwind(|| g(8, 8, geo(3, 40_000, 1)));
        let msg = *too_big.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("c_in·(h+2·pad)·(w+2·pad)"), "{msg}");
        let entry = std::panic::catch_unwind(|| {
            fill_offsets(&mut Vec::new(), "base", std::iter::once(1 << 32));
        });
        let msg = *entry.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("`base`"), "{msg}");
    }

    /// The CNN4 stem (3→32, 224², stride 2): the largest staging tables
    /// the model zoo builds (the broadcast dW's) and the lowered forward
    /// and dX, run where overflow checks are on (debug CI step
    /// `fused_conv`), against the Scalar reference.
    #[test]
    fn fused_conv_cnn4_stem_tables() {
        let geo = Conv2dGeometry {
            c_in: 3,
            h: 224,
            w: 224,
            k: 3,
            stride: 2,
            pad: 1,
        };
        let (batch, c_out) = (2usize, 32usize);
        let (rows, n_cols) = (geo.col_rows(), geo.col_cols());
        let img_len = geo.c_in * geo.h * geo.w;
        let x = arb(batch * img_len, 1);
        let w = arb(c_out * rows, 2);
        let g = arb(batch * c_out * n_cols, 3);
        let (mut out, mut dw, mut dx) = (
            vec![0.0f32; batch * c_out * n_cols],
            vec![0.0f32; c_out * rows],
            vec![0.0f32; batch * img_len],
        );
        let (mut want_out, mut want_dw, mut want_dx) = (out.clone(), dw.clone(), dx.clone());
        let mut ws = Vec::new();
        let one = Parallel::with_threads(1);
        one.conv2d_forward(&x, &w, None, &mut out, batch, c_out, &geo, &mut ws);
        one.conv2d_backward_weights(&x, &g, &mut dw, batch, c_out, &geo, &mut ws);
        one.conv2d_backward_input(&w, &g, &mut dx, batch, c_out, &geo, &mut ws);
        Scalar.conv2d_forward(&x, &w, None, &mut want_out, batch, c_out, &geo, &mut ws);
        Scalar.conv2d_backward_weights(&x, &g, &mut want_dw, batch, c_out, &geo, &mut ws);
        Scalar.conv2d_backward_input(&w, &g, &mut want_dx, batch, c_out, &geo, &mut ws);
        let close = |got: &[f32], want: &[f32], what: &str| {
            for (i, (a, b)) in got.iter().zip(want).enumerate() {
                let tol = 1e-4f32.max(1e-4 * b.abs());
                assert!((a - b).abs() <= tol, "{what}[{i}]: {a} vs {b}");
            }
        };
        close(&out, &want_out, "forward");
        close(&dw, &want_dw, "dW");
        close(&dx, &want_dx, "dX");
    }
}

#[cfg(test)]
mod tune {
    use super::*;

    /// Manual tuning probe (`cargo test -p fp-tensor --release tune_probe
    /// -- --ignored --nocapture`): times the 512³ hot shape under
    /// different tile configurations.
    #[test]
    #[ignore]
    fn tune_probe() {
        let n = 512usize;
        let a = crate::test_support::arb(n * n, 1);
        let b = crate::test_support::arb(n * n, 2);
        let mut out = vec![0.0f32; n * n];
        let flops = 2.0 * (n as f64).powi(3);
        for kc in [128usize, 256, 384] {
            for mc in [64usize, 128, 256, 512] {
                for nc in [256usize, 512] {
                    let tiles = Tiles { mc, kc, nc };
                    // warm
                    out.fill(0.0);
                    gemm_with_tiles(
                        native_isa(),
                        tiles,
                        n,
                        n,
                        n,
                        &mut out,
                        n,
                        |i, p| a[i * n + p],
                        BSrc::Rows(&|p, j0, dst| {
                            let w = dst.len();
                            dst.copy_from_slice(&b[p * n + j0..p * n + j0 + w]);
                        }),
                    );
                    let reps = 5;
                    let t = std::time::Instant::now();
                    for _ in 0..reps {
                        out.fill(0.0);
                        gemm_with_tiles(
                            native_isa(),
                            tiles,
                            n,
                            n,
                            n,
                            &mut out,
                            n,
                            |i, p| a[i * n + p],
                            BSrc::Rows(&|p, j0, dst| {
                                let w = dst.len();
                                dst.copy_from_slice(&b[p * n + j0..p * n + j0 + w]);
                            }),
                        );
                    }
                    let ns = t.elapsed().as_nanos() as f64 / reps as f64;
                    println!(
                        "kc={kc:4} mc={mc:4} nc={nc:4}  {:8.0} ns  {:6.1} GFLOP/s",
                        ns,
                        flops / ns
                    );
                    std::hint::black_box(&out);
                }
            }
        }
    }

    /// Manual thread probe (`cargo test -p fp-tensor --release --lib
    /// tune_conv_threads -- --ignored --nocapture`): per-call forward and
    /// input-gradient time of the four Medium stages at the training (32)
    /// and validation (64) batch on one and on two kernel threads,
    /// interleaved, best of several trials, with each call's
    /// multiply-accumulate count — the table `PAR_MACS_THRESHOLD` is read
    /// from.
    #[test]
    #[ignore]
    fn tune_conv_threads() {
        use crate::test_support::arb;
        println!("batch stage          MACs   fwd 1t   fwd 2t    dX 1t    dX 2t   (µs)");
        let stages = [
            (3usize, 12usize, 16usize),
            (12, 24, 8),
            (24, 32, 4),
            (32, 48, 2),
        ];
        for (batch, (c_in, c_out, hw)) in [32usize, 64]
            .into_iter()
            .flat_map(|b| stages.map(|st| (b, st)))
        {
            let geo = Conv2dGeometry {
                c_in,
                h: hw,
                w: hw,
                k: 3,
                stride: 1,
                pad: 1,
            };
            let (img_len, out_len) = (c_in * hw * hw, c_out * hw * hw);
            let x = arb(batch * img_len, 1);
            let w = arb(c_out * geo.col_rows(), 2);
            let grad = arb(batch * out_len, 3);
            let mut out = vec![0.0f32; batch * out_len];
            let mut dx = vec![0.0f32; batch * img_len];
            let mut best = [f64::INFINITY; 4];
            for _ in 0..15 {
                for (i, threads) in [(0, 1), (1, 2), (0, 1), (1, 2)] {
                    let t = std::time::Instant::now();
                    for _ in 0..20 {
                        out.fill(0.0);
                        conv2d_forward_direct(
                            native_isa(),
                            &x,
                            &w,
                            None,
                            &mut out,
                            batch,
                            c_out,
                            &geo,
                            threads,
                        );
                    }
                    best[i] = best[i].min(t.elapsed().as_nanos() as f64 / 20.0 / 1e3);
                    let t = std::time::Instant::now();
                    for _ in 0..20 {
                        dx.fill(0.0);
                        conv2d_backward_input_direct(
                            native_isa(),
                            &w,
                            &grad,
                            &mut dx,
                            batch,
                            c_out,
                            &geo,
                            threads,
                        );
                    }
                    best[2 + i] = best[2 + i].min(t.elapsed().as_nanos() as f64 / 20.0 / 1e3);
                }
            }
            let macs = batch * c_out * geo.col_rows() * geo.col_cols();
            println!(
                "{batch:5} {c_in:2}->{c_out:2}@{hw:2}² {macs:9} {:8.1} {:8.1} {:8.1} {:8.1}",
                best[0], best[1], best[2], best[3]
            );
            std::hint::black_box((&out, &dx));
        }
    }

    /// Manual conv probe (`cargo test -p fp-tensor --release
    /// tune_conv_probe -- --ignored --nocapture`): for the four Medium
    /// stage convolutions at batch 32 on one thread, the `im2col` + GEMM
    /// forward and dX next to the direct kernels that replace them at
    /// stride 1, then the broadcast dW end to end and in its parts — the
    /// staging copy, the gradient transpose and the kernel alone.
    #[test]
    #[ignore]
    fn tune_conv_probe() {
        use crate::backend::{lowered_conv2d_backward_input, lowered_conv2d_forward, Parallel};
        use crate::test_support::arb;
        // Best of several short trials: the sandbox's noise is one-sided.
        let time = |f: &mut dyn FnMut()| {
            f();
            let trial = |f: &mut dyn FnMut()| {
                let t = std::time::Instant::now();
                for _ in 0..40 {
                    f();
                }
                t.elapsed().as_nanos() as f64 / 40.0 / 1e3
            };
            (0..9).map(|_| trial(f)).fold(f64::INFINITY, f64::min)
        };
        let one = Parallel::with_threads(1);
        println!("stage             fwd  direct-fwd      dX  direct   dW-bcst stage-in  gradT kernel  (µs)");
        for (c_in, c_out, hw) in [
            (3usize, 12usize, 16usize),
            (12, 24, 8),
            (24, 32, 4),
            (32, 48, 2),
        ] {
            let geo = Conv2dGeometry {
                c_in,
                h: hw,
                w: hw,
                k: 3,
                stride: 1,
                pad: 1,
            };
            let batch = 32usize;
            let (rows, n_cols, img_len, out_len, g) =
                conv_shape(batch, c_out, &geo).expect("non-empty");
            let x = arb(batch * img_len, 1);
            let w = arb(c_out * rows, 2);
            let grad = arb(batch * out_len, 3);
            let mut out = vec![0.0f32; batch * out_len];
            let mut dx = vec![0.0f32; batch * img_len];
            let mut ws = Vec::new();
            let fwd = time(&mut || {
                out.fill(0.0);
                lowered_conv2d_forward(&one, &x, &w, None, &mut out, batch, c_out, &geo, &mut ws);
            });
            let direct_fwd = time(&mut || {
                out.fill(0.0);
                conv2d_forward_direct(native_isa(), &x, &w, None, &mut out, batch, c_out, &geo, 1);
            });
            let bwi = time(&mut || {
                dx.fill(0.0);
                lowered_conv2d_backward_input(
                    &one, &w, &grad, &mut dx, batch, c_out, &geo, &mut ws,
                );
            });
            let direct = time(&mut || {
                dx.fill(0.0);
                conv2d_backward_input_direct(
                    native_isa(),
                    &w,
                    &grad,
                    &mut dx,
                    batch,
                    c_out,
                    &geo,
                    1,
                );
            });
            let mut dw = vec![0.0f32; c_out * rows];
            let dw_bcast = time(&mut || {
                dw.fill(0.0);
                conv2d_backward_weights_broadcast(
                    native_isa(),
                    &x,
                    &grad,
                    &mut dw,
                    batch,
                    c_out,
                    &geo,
                    1,
                );
            });
            // The parts, over the same fold groups.
            let mut st = Staging::default();
            st.prepare(&geo, g);
            let stage_in = time(&mut || {
                for x_g in x.chunks(g * img_len) {
                    st.stage(&geo, x_g);
                }
            });
            let ld = c_out.next_multiple_of(LANES);
            let mut gt = vec![0.0f32; g * n_cols * ld];
            let grad_t = time(&mut || {
                for g_g in grad.chunks(g * out_len) {
                    for (g_s, gt_s) in g_g
                        .chunks_exact(out_len)
                        .zip(gt.chunks_exact_mut(n_cols * ld))
                    {
                        transpose(native_isa(), g_s, n_cols, gt_s, ld, c_out, n_cols, ld);
                    }
                }
                std::hint::black_box(&gt);
            });
            let mut dwt = vec![0.0f32; rows * ld];
            let kern = time(&mut || {
                let k = DwKernel {
                    buf: &st.buf,
                    base: &st.base,
                    row_off: &st.row_off,
                    ld,
                };
                for _ in 0..batch.div_ceil(g) {
                    // SAFETY: `gt` holds the group's rows and `dwt` every
                    // tap's, `ld` floats each; the tables index the staging.
                    unsafe { k.run(native_isa(), gt.as_ptr(), dwt.as_mut_ptr()) };
                }
            });
            println!(
                "{c_in:2}->{c_out:2}@{hw:2}² g={g:2} {fwd:7.1} {direct_fwd:11.1} {bwi:7.1} {direct:7.1} {dw_bcast:9.1} {stage_in:8.1} {grad_t:6.1} {kern:6.1}",
            );
            std::hint::black_box((&out, &dx, &dw));
        }
    }
}
