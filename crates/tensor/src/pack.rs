//! The panel-packed, cache-blocked GEMM engine behind
//! [`Parallel`](crate::Parallel).
//!
//! # Structure
//!
//! Every GEMM flavor (`A·B`, `Aᵀ·B`, `A·Bᵀ`, and the three convolution
//! kernels) runs through one driver, [`drive_packed`], over a packed A
//! operand and a *source* of B panels ([`BSrc`]): a row reader
//! `f(p, j0, dst)`, a column reader for transposed operands, or a
//! [`Gather`] — an operand read through two offset tables, `src[col[j] +
//! red[p]]`. The driver packs A into row-panels of `MR` rows and B into
//! column-panels of `NR` columns, blocks the reduction into `KC`-deep
//! slabs sized so one B panel stays L1-resident, and walks a
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
//! # Staged conv lowering
//!
//! The training stack's convolutions are small-image, many-sample
//! problems (3→12@16² … 32→48@2² at batch 32), where a per-sample GEMM
//! is a few panels wide and patch gathering costs more than the
//! arithmetic. All three conv kernels therefore share one batch-folded,
//! table-driven lowering. The batch is cut into *fold groups* of `g`
//! consecutive samples, `g·n_cols ≈` [`FOLD_COLS`] (one sample when
//! `n_cols` alone exceeds it). Per group and per thread, [`Staging`]
//! holds
//!
//! ```text
//!   buf:        [g, c_in, h+2·pad, w+2·pad]   the images, borders zero
//!   base[j]:    corner of patch j = (s, oy, ox) in buf      (g·n_cols)
//!   row_off[p]: offset of tap p = (c, ky, kx) from a corner (c_in·k²)
//!   gbase[j], g_off[co]: the same split for [g, c_out, n_cols] buffers
//! ```
//!
//! so that `cols[p][j] = buf[base[j] + row_off[p]]` with no bounds or
//! padding logic — a tap that falls outside the image reads a zero of
//! the border. Where consecutive table entries are consecutive offsets
//! (an output row at stride 1, a sample's `n_cols` gradient columns) a
//! panel moves in fixed-width block copies, otherwise element by element
//! ([`block_len`]). The three kernels are then:
//!
//! * **forward** — `out = W · cols`, the batch folded into **N**
//!   (`N = g·n_cols`). Output columns of one sample are contiguous, those
//!   of different samples are not ([`CMap`]); a tile that straddles
//!   samples goes through the scratch-tile path.
//! * **backward weights** — `dw += grad · colsᵀ`, the batch folded into
//!   **K** (`K = g·n_cols`): the same tables with their roles swapped,
//!   on both operands.
//! * **backward input** — `dcols = Wᵀ · grad` folded into **N**, then
//!   the adjoint of the gather ([`scatter_add`]) adds `dcols` into `buf`
//!   in ascending row order; `buf` is seeded from `dx` and copied back.
//!
//! Offsets are `u32`, built through checked conversions; a group shrinks
//! (down to one sample) before a table could overflow.
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
//! Folding the batch keeps the chain too: in N it only places more
//! independent columns in one call, in K it concatenates the per-sample
//! reductions in sample order — the order the sample-at-a-time loop
//! accumulates in — and the scatter adds each image element's taps in the
//! `(ky, kx)` order of [`crate::im2col::col2im`].
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
    cols: Vec<f32>,
    /// Padded images and offset tables of one conv fold group.
    st: Staging,
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
    /// `B[p][j] = src[col[j] + red[p]]` — the conv lowering's offset
    /// tables.
    Table(Gather<'a>),
}

/// Where a driver call's output lives: element `(i, j)` is at
/// `i·ldc + (j / inner)·outer + j % inner`. A plain row-major matrix is
/// one block ([`CMap::rows`]); the batch-folded conv forward has one
/// block of `inner = n_cols` columns per sample.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CMap {
    ldc: usize,
    inner: usize,
    outer: usize,
}

impl CMap {
    /// Row-major output with row stride `ldc`.
    pub(crate) fn rows(ldc: usize) -> Self {
        CMap {
            ldc,
            inner: usize::MAX,
            outer: 0,
        }
    }

    fn col(&self, j: usize) -> usize {
        (j / self.inner) * self.outer + j % self.inner
    }

    /// `at[t] = col(j0 + t)`, without a division per column.
    fn cols_from(&self, j0: usize, at: &mut [usize]) {
        let (mut q, mut block) = (j0 % self.inner, j0 / self.inner * self.outer);
        for a in at {
            if q == self.inner {
                (q, block) = (0, block + self.outer);
            }
            *a = block + q;
            q += 1;
        }
    }
}

/// Runs the blocked loop nest over a pre-packed A operand, packing B
/// panels on the fly through `b_src` and driving the microkernel.
///
/// `out` holds `m` rows of `n` valid columns, laid out by `cmap`.
#[allow(clippy::too_many_arguments)] // internal driver: the loop-nest state is the argument list
fn drive_packed<K: Microkernel>(
    m: usize,
    kdim: usize,
    n: usize,
    out: &mut [f32],
    cmap: CMap,
    tiles: Tiles,
    apack: &[f32],
    bpack: &mut Vec<f32>,
    b_src: BSrc<'_>,
) {
    if m == 0 || n == 0 || kdim == 0 {
        return;
    }
    let ldc = cmap.ldc;
    debug_assert!(
        out.len() > (m - 1) * ldc + cmap.col(n - 1),
        "out buffer too small"
    );
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
                    BSrc::Table(g) => g.pack(j0, jw, pc, nr, &mut panel[..kcb * nr]),
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
                    // A panel whose columns sit in one `cmap` block is
                    // contiguous in `out`; one that straddles blocks
                    // (samples, on the folded conv forward) is not.
                    let mut at = [0usize; MAX_NR];
                    cmap.cols_from(j0, &mut at[..jw]);
                    let contiguous = jw == nr && at[nr - 1] - at[0] == nr - 1;
                    for ip in ip0..ip0 + band_pan {
                        let i0 = ip * mr;
                        let iw = mr.min(m - i0);
                        let apanel = a_slab[ip * mr * kcb..].as_ptr();
                        if iw == mr && contiguous {
                            let tile = &mut out[i0 * ldc + at[0]..][..(mr - 1) * ldc + nr];
                            // SAFETY: `tile` spans the full MR×NR tile
                            // at stride `ldc` (the slice above checked
                            // it), both panels hold `kcb` packed steps,
                            // and the dispatch verified the required
                            // CPU features.
                            unsafe {
                                K::run(apanel, bpanel, kcb, tile.as_mut_ptr(), ldc);
                            }
                        } else {
                            // Ragged or straddling tile: run the
                            // identical kernel on a scratch tile; copies
                            // are exact, padded lanes fold
                            // `fma(0, x, c) = c`, so the per-element
                            // chain is unchanged.
                            let mut scratch = [0.0f32; MAX_TILE];
                            for r in 0..iw {
                                for (j, &a) in at[..jw].iter().enumerate() {
                                    scratch[r * nr + j] = out[(i0 + r) * ldc + a];
                                }
                            }
                            // SAFETY: scratch holds MR·NR ≤ MAX_TILE
                            // floats; panels as above.
                            unsafe {
                                K::run(apanel, bpanel, kcb, scratch.as_mut_ptr(), nr);
                            }
                            for r in 0..iw {
                                for (j, &a) in at[..jw].iter().enumerate() {
                                    out[(i0 + r) * ldc + a] = scratch[r * nr + j];
                                }
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

// ---------------------------------------------------------- table operands

/// Largest power of two `l ≤ MAX_NR` such that `tab` is a whole number
/// of `l`-blocks of consecutive offsets — the width a table gather or
/// scatter can move per fixed-size copy (`1`: element by element).
fn block_len(tab: &[u32]) -> usize {
    let consecutive = |blk: &[u32]| blk.windows(2).all(|w| w[1].wrapping_sub(w[0]) == 1);
    let mut l = MAX_NR;
    while l > 1 && !(tab.len().is_multiple_of(l) && tab.chunks_exact(l).all(consecutive)) {
        l /= 2;
    }
    l
}

/// Runs `$f::<L>($args)` with the runtime block length as the const `L`.
macro_rules! with_block_len {
    ($l:expr, $f:ident($($a:expr),*)) => {
        match $l {
            32 => $f::<32>($($a),*),
            16 => $f::<16>($($a),*),
            8 => $f::<8>($($a),*),
            4 => $f::<4>($($a),*),
            2 => $f::<2>($($a),*),
            _ => $f::<1>($($a),*),
        }
    };
}

/// A GEMM operand read through two offset tables: element `(p, j)` is
/// `src[col[j] + red[p]]`, `j` the operand's panel dimension and `p` the
/// reduction index.
#[derive(Clone, Copy)]
pub(crate) struct Gather<'a> {
    src: &'a [f32],
    col: &'a [u32],
    red: &'a [u32],
    /// [`block_len`] of `col` and of `red`.
    runs: (usize, usize),
}

impl<'a> Gather<'a> {
    fn new(src: &'a [f32], col: &'a [u32], red: &'a [u32]) -> Self {
        let runs = (block_len(col), block_len(red));
        Gather {
            src,
            col,
            red,
            runs,
        }
    }

    /// Packs one panel: `panel[p·w + t] = src[col[j0 + t] + red[p0 + p]]`
    /// for `t < jw`, zero for the panel's remaining `w - jw` columns,
    /// over the `panel.len() / w` reduction steps from `p0`. Blocks of
    /// consecutive offsets move as fixed-size copies — along the panel
    /// rows when `col` has the longer blocks, down its columns when
    /// `red` has — and element by element when neither table has any.
    fn pack(&self, j0: usize, jw: usize, p0: usize, w: usize, panel: &mut [f32]) {
        fn along_rows<const L: usize>(src: &[f32], col: &[u32], red: &[u32], panel: &mut [f32]) {
            let w = panel.len() / red.len();
            for (&ro, dst) in red.iter().zip(panel.chunks_exact_mut(w)) {
                for (&b, d) in col.iter().step_by(L).zip(dst.chunks_exact_mut(L)) {
                    let o = b as usize + ro as usize;
                    d.copy_from_slice(&src[o..o + L]);
                }
                dst[col.len()..].fill(0.0);
            }
        }
        fn down_cols<const L: usize>(src: &[f32], col: &[u32], red: &[u32], panel: &mut [f32]) {
            let w = panel.len() / red.len();
            for (&b, dst) in red.iter().step_by(L).zip(panel.chunks_exact_mut(L * w)) {
                for (t, &co) in col.iter().enumerate() {
                    let o = b as usize + co as usize;
                    for (row, &v) in dst.chunks_exact_mut(w).zip(&src[o..o + L]) {
                        row[t] = v;
                    }
                }
                for row in dst.chunks_exact_mut(w) {
                    row[col.len()..].fill(0.0);
                }
            }
        }
        let (col, red) = (&self.col[j0..j0 + jw], &self.red[p0..p0 + panel.len() / w]);
        // A block length holds for this panel only if the panel starts
        // and ends on block boundaries of the table.
        let aligned = |run: usize, at: usize, len: usize| {
            if at.is_multiple_of(run) && len.is_multiple_of(run) {
                run
            } else {
                1
            }
        };
        let (cr, rr) = (
            aligned(self.runs.0, j0, jw),
            aligned(self.runs.1, p0, red.len()),
        );
        if cr >= rr {
            with_block_len!(cr, along_rows(self.src, col, red, panel));
        } else {
            with_block_len!(rr, down_cols(self.src, col, red, panel));
        }
    }

    /// [`pack_a_all`] through the tables: rows `i0 .. i0+m` of the
    /// operand (`col` entries) against all of `red`.
    fn pack_a(&self, mr: usize, i0: usize, m: usize, kc: usize, buf: &mut Vec<f32>) {
        let (mpan, kdim) = (m.div_ceil(mr), self.red.len());
        buf.resize(mpan * mr * kdim, 0.0);
        for pc in (0..kdim).step_by(kc) {
            let kcb = kc.min(kdim - pc);
            let slab = &mut buf[mpan * mr * pc..][..mpan * mr * kcb];
            for (ip, panel) in slab.chunks_exact_mut(mr * kcb).enumerate() {
                self.pack(i0 + ip * mr, mr.min(m - ip * mr), pc, mr, panel);
            }
        }
    }
}

/// Adjoint of a [`Gather`]: `dst[col[j] + red[r]] += d[r][j]`, rows
/// ascending, so every `dst` element accumulates its contributions in
/// `red` order.
fn scatter_add(dst: &mut [f32], d: &[f32], col: &[u32], red: &[u32]) {
    // Not inlined: as a function of its own, `dst` and `d` are known not
    // to alias, and each block becomes one vector add.
    #[inline(never)]
    fn blocks<const L: usize>(dst: &mut [f32], d: &[f32], col: &[u32], red: &[u32]) {
        for (&ro, drow) in red.iter().zip(d.chunks_exact(col.len())) {
            for (&b, dv) in col.iter().step_by(L).zip(drow.chunks_exact(L)) {
                let o = b as usize + ro as usize;
                for (s, v) in dst[o..o + L].iter_mut().zip(dv) {
                    *s += v;
                }
            }
        }
    }
    with_block_len!(block_len(col), blocks(dst, d, col, red));
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
                m, kdim, n, out, CMap::rows(ldc), tiles, &ws.apack, &mut ws.bpack, b_src,
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

// -------------------------------------------------------------- fused conv

use crate::{backend::for_row_chunks, im2col::Conv2dGeometry};

/// Folded GEMM width a conv fold group aims for: four of the widest
/// panels. The microkernel is at full rate from there, and a group's B
/// block, `dcols` and staging — all proportional to it — stay in L2
/// (`tune_conv_probe`: 128 beats both 64 and one whole `NC` block).
const FOLD_COLS: usize = 4 * MAX_NR;

/// `(rows, n_cols, img_len, out_len, g)` of a staged conv call.
type ConvShape = (usize, usize, usize, usize, usize);

/// The shape of a staged conv call (module doc, "Staged conv lowering"),
/// `None` for an empty problem: the per-sample `cols` matrix is `rows ×
/// n_cols`, a sample is `img_len` floats in and `out_len` out, and a fold
/// group takes `g` samples — as many as bring the folded GEMM dimension
/// (`g·n_cols`) to [`FOLD_COLS`], fewer, down to one, when the group's
/// padded staging or output rows would outgrow the `u32` offset tables.
fn conv_shape(batch: usize, c_out: usize, geo: &Conv2dGeometry) -> Option<ConvShape> {
    let (rows, n_cols) = (geo.col_rows(), geo.col_cols());
    let (img_len, out_len) = (geo.c_in * geo.h * geo.w, c_out * n_cols);
    if batch == 0 || rows == 0 || out_len == 0 {
        return None;
    }
    let padded_len = geo.c_in * (geo.h + 2 * geo.pad) * (geo.w + 2 * geo.pad);
    let span = padded_len.max(out_len);
    assert!(
        span <= u32::MAX as usize,
        "conv lowering: one sample spans {span} floats (padded c_in·(h+2·pad)·(w+2·pad) = \
         {padded_len}, c_out·h_out·w_out = {out_len}), beyond the u32 offset tables"
    );
    let g = (FOLD_COLS / n_cols).min(u32::MAX as usize / span);
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
    /// Per folded output column: its place in `[g, c_out, n_cols]`, channel 0.
    gbase: Vec<u32>,
    /// Per output channel: its offset from `gbase`.
    g_off: Vec<u32>,
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
    fn prepare(&mut self, geo: &Conv2dGeometry, c_out: usize, g: usize) {
        let (hp, wp, w_out) = (geo.h + 2 * geo.pad, geo.w + 2 * geo.pad, geo.w_out());
        let (k, s, n_cols, padded_len) = (geo.k, geo.stride, geo.col_cols(), geo.c_in * hp * wp);
        let cols = || (0..g).flat_map(|i| (0..n_cols).map(move |q| (i, q)));
        let corner = |(i, q)| i * padded_len + (q / w_out * wp + q % w_out) * s;
        fill_offsets(&mut self.base, "base", cols().map(corner));
        let out_at = |(i, q)| i * c_out * n_cols + q;
        fill_offsets(&mut self.gbase, "gbase", cols().map(out_at));
        let tap = |r| (r / (k * k) * hp + r / k % k) * wp + r % k;
        fill_offsets(&mut self.row_off, "row_off", (0..geo.col_rows()).map(tap));
        fill_offsets(&mut self.g_off, "g_off", (0..c_out).map(|co| co * n_cols));
        self.buf.clear();
        self.buf.resize(g * padded_len, 0.0);
    }

    /// Calls `copy(staged_row, image_row)` for every image row of the
    /// dense `[n, c_in, h, w]` batch `imgs` and its place in `buf`.
    fn rows<T>(&mut self, geo: &Conv2dGeometry, imgs: T, copy: impl Fn(&mut [f32], T::Item))
    where
        T: IntoIterator,
    {
        let (hp, wp) = (geo.h + 2 * geo.pad, geo.w + 2 * geo.pad);
        for (i, row) in imgs.into_iter().enumerate() {
            let at = ((i / geo.h * hp) + i % geo.h + geo.pad) * wp + geo.pad;
            copy(&mut self.buf[at..at + geo.w], row);
        }
    }
}

/// Staged conv forward: `out[s] += W·im2col(x[s]) (+ bias)`, one GEMM
/// per fold group with the batch folded into N. The weight panels are
/// packed once into the caller's per-layer workspace `ws`; the B panels
/// are gathered from the staged images — no materialized `cols` buffer.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_forward_fused(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    batch: usize,
    c_out: usize,
    geo: &Conv2dGeometry,
    ws: &mut Vec<f32>,
    threads: usize,
) {
    let Some((rows, n_cols, img_len, out_len, g)) = conv_shape(batch, c_out, geo) else {
        return;
    };
    let tiles = tiles_for(c_out, rows, g * n_cols);
    dispatch_kernel!(native_isa(), c_out, g * n_cols, K => {
        pack_a_all(K::MR, c_out, rows, tiles.kc, |i, p| w[i * rows + p], ws);
        let apack: &[f32] = ws;
        for_row_chunks(out, batch, out_len, threads, |s0, s1, chunk| WS.with(|tws| {
            let Ws { bpack, st, .. } = &mut *tws.borrow_mut();
            st.prepare(geo, c_out, g);
            let x = &x[s0 * img_len..s1 * img_len];
            for (out_g, x_g) in chunk.chunks_mut(g * out_len).zip(x.chunks(g * img_len)) {
                let nn = out_g.len() / out_len * n_cols;
                st.rows(geo, x_g.chunks_exact(geo.w), |staged, row| staged.copy_from_slice(row));
                drive_packed::<K>(
                    c_out, rows, nn, out_g,
                    CMap { ldc: n_cols, inner: n_cols, outer: out_len },
                    tiles, apack, bpack,
                    BSrc::Table(Gather::new(&st.buf, &st.base[..nn], &st.row_off)),
                );
                if let Some(bias) = bias {
                    for (out_row, &bv) in out_g.chunks_mut(n_cols).zip(bias.iter().cycle()) {
                        out_row.iter_mut().for_each(|v| *v += bv);
                    }
                }
            }
        }));
    });
}

/// Staged weight gradient: `dw += Σ_s grad[s] · im2col(x[s])ᵀ`, one GEMM
/// per fold group with the batch folded into K (`K = g·n_cols`). Threads
/// split only output rows and groups run in sample order: every `dw`
/// element sees the canonical `s`-major, `q`-ascending chain.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_backward_weights_fused(
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
    let tiles = tiles_for(c_out, g * n_cols, rows);
    dispatch_kernel!(native_isa(), c_out, rows, K => {
        for_row_chunks(dw, c_out, rows, threads, |r0, r1, chunk| WS.with(|tws| {
            let Ws { apack, bpack, st, .. } = &mut *tws.borrow_mut();
            st.prepare(geo, c_out, g);
            for (x_g, g_g) in x.chunks(g * img_len).zip(grad.chunks(g * out_len)) {
                let nn = g_g.len() / out_len * n_cols;
                st.rows(geo, x_g.chunks_exact(geo.w), |staged, row| staged.copy_from_slice(row));
                // The reduction walks `(s, oy, ox)`: A is `grad` by channel,
                // B = colsᵀ, the forward's tables with their roles swapped.
                Gather::new(g_g, &st.g_off, &st.gbase[..nn])
                    .pack_a(K::MR, r0, r1 - r0, tiles.kc, apack);
                drive_packed::<K>(
                    r1 - r0, nn, rows, chunk, CMap::rows(rows), tiles, apack, bpack,
                    BSrc::Table(Gather::new(&st.buf, &st.row_off, &st.base[..nn])),
                );
            }
        }));
    });
}

/// Staged input gradient: per fold group, `dcols = Wᵀ·grad` is one GEMM
/// with the batch folded into N (Wᵀ panels packed once into `ws`); the
/// adjoint scatter then adds `dcols` into the padded staging — seeded from
/// `dx`, so `dx` is accumulated into — and the interiors are copied back.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_backward_input_fused(
    w: &[f32],
    grad: &[f32],
    dx: &mut [f32],
    batch: usize,
    c_out: usize,
    geo: &Conv2dGeometry,
    ws: &mut Vec<f32>,
    threads: usize,
) {
    let Some((rows, n_cols, img_len, out_len, g)) = conv_shape(batch, c_out, geo) else {
        return;
    };
    let tiles = tiles_for(rows, c_out, g * n_cols);
    dispatch_kernel!(native_isa(), rows, g * n_cols, K => {
        // A = Wᵀ: element (im2col row i, reduction channel p) = w[p, i].
        pack_a_all(K::MR, rows, c_out, tiles.kc, |i, p| w[p * rows + i], ws);
        let apack: &[f32] = ws;
        for_row_chunks(dx, batch, img_len, threads, |s0, s1, chunk| WS.with(|tws| {
            let Ws { bpack, cols, st, .. } = &mut *tws.borrow_mut();
            st.prepare(geo, c_out, g);
            let grad = &grad[s0 * out_len..s1 * out_len];
            for (dx_g, g_g) in chunk.chunks_mut(g * img_len).zip(grad.chunks(g * out_len)) {
                let nn = dx_g.len() / img_len * n_cols;
                cols.clear();
                cols.resize(rows * nn, 0.0);
                drive_packed::<K>(
                    rows, c_out, nn, cols, CMap::rows(nn), tiles, apack, bpack,
                    BSrc::Table(Gather::new(g_g, &st.gbase[..nn], &st.g_off)),
                );
                st.rows(geo, dx_g.chunks_exact(geo.w), |staged, row| staged.copy_from_slice(row));
                scatter_add(&mut st.buf, cols, &st.base[..nn], &st.row_off);
                st.rows(geo, dx_g.chunks_exact_mut(geo.w), |staged, row| row.copy_from_slice(staged));
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut cols = vec![0.0f32; rows * n_cols];
        for s in 0..batch {
            crate::im2col::im2col(&x[s * img_len..][..img_len], geo, &mut cols);
            let g_s = &g[s * c_out * n_cols..][..c_out * n_cols];
            // Forward: out[s] += W · cols_s.
            let out_s = &mut out[s * c_out * n_cols..][..c_out * n_cols];
            reference_gemm(w, &cols, out_s, c_out, rows, n_cols);
            // dW: s-major, q-ascending chain.
            for i in 0..c_out {
                for r in 0..rows {
                    let mut c = dw[i * rows + r];
                    for q in 0..n_cols {
                        c = g_s[i * n_cols + q].mul_add(cols[r * n_cols + q], c);
                    }
                    dw[i * rows + r] = c;
                }
            }
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

    /// Staged conv forward / dW / dX equal the materialized-`cols`
    /// canonical chains bit for bit, accumulating into non-zero
    /// destinations, across the fold edges: one sample, a ragged last
    /// group (5, 33), panels that straddle samples (`n_cols` 1, 4, 9, 12,
    /// 16), two-sample groups (`n_cols` 256), stride 2, pad ≥ k, and 1–3
    /// worker threads.
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
                    let (mut out, mut dw, mut dx) = init.clone();
                    let mut ws = Vec::new();
                    conv2d_forward_fused(
                        &x, &w, None, &mut out, batch, c_out, &geo, &mut ws, threads,
                    );
                    conv2d_backward_weights_fused(&x, &g, &mut dw, batch, c_out, &geo, threads);
                    conv2d_backward_input_fused(
                        &w, &g, &mut dx, batch, c_out, &geo, &mut ws, threads,
                    );
                    let what = format!("{geo:?} batch {batch} threads {threads}");
                    assert_eq!(out, want.0, "forward {what}");
                    assert_eq!(dw, want.1, "dW {what}");
                    assert_eq!(dx, want.2, "dX {what}");
                }
            }
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
        // 2^31 output floats per sample.
        assert_eq!(g(1000, 1 << 29, geo(1, 2, 1)), 1);
        let too_big = std::panic::catch_unwind(|| g(8, 8, geo(3, 40_000, 1)));
        let msg = *too_big.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("c_in·(h+2·pad)·(w+2·pad)"), "{msg}");
        let entry = std::panic::catch_unwind(|| {
            fill_offsets(&mut Vec::new(), "base", std::iter::once(1 << 32));
        });
        let msg = *entry.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("`base`"), "{msg}");
    }

    /// The CNN4 stem (3→32, 224², stride 2): the largest tables the
    /// model zoo builds, run where overflow checks are on (debug CI step
    /// `fused_conv`), against the Scalar reference.
    #[test]
    fn fused_conv_cnn4_stem_tables() {
        use crate::backend::{Backend, Scalar};
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
        conv2d_forward_fused(&x, &w, None, &mut out, batch, c_out, &geo, &mut ws, 1);
        conv2d_backward_weights_fused(&x, &g, &mut dw, batch, c_out, &geo, 1);
        conv2d_backward_input_fused(&w, &g, &mut dx, batch, c_out, &geo, &mut ws, 1);
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

    /// Manual conv probe (`cargo test -p fp-tensor --release
    /// tune_conv_probe -- --ignored --nocapture`): for the four Medium
    /// stage convolutions at batch 32, the three staged kernels end to
    /// end, then the forward split into its parts — staging copy, table
    /// gather into B panels (forward and dW orientation), the GEMM on an
    /// already-dense B of the folded shape — and dX's adjoint scatter.
    #[test]
    #[ignore]
    fn tune_conv_probe() {
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
        println!("stage             fwd      dW      dX | stage-in  gather  gatherT    gemm scatter   (µs; ns/float)");
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
            let mut dw = vec![0.0f32; c_out * rows];
            let mut dx = vec![0.0f32; batch * img_len];
            let mut ws = Vec::new();
            let fwd = time(&mut || {
                out.fill(0.0);
                conv2d_forward_fused(&x, &w, None, &mut out, batch, c_out, &geo, &mut ws, 1);
            });
            let bww = time(&mut || {
                conv2d_backward_weights_fused(&x, &grad, &mut dw, batch, c_out, &geo, 1);
            });
            let bwi = time(&mut || {
                dx.fill(0.0);
                conv2d_backward_input_fused(&w, &grad, &mut dx, batch, c_out, &geo, &mut ws, 1);
            });
            // The parts, over the same fold groups.
            let groups = batch.div_ceil(g);
            let nn = g * n_cols;
            let mut st = Staging::default();
            st.prepare(&geo, c_out, g);
            let stage_in = time(&mut || {
                for x_g in x.chunks(g * img_len) {
                    st.rows(&geo, x_g.chunks_exact(hw), |staged, row| {
                        staged.copy_from_slice(row)
                    });
                }
            });
            let nr = MAX_NR;
            let mut panel = vec![0.0f32; rows.max(nn) * nr];
            let fwd_b = Gather::new(&st.buf, &st.base, &st.row_off);
            let gather = time(&mut || {
                for _ in 0..groups {
                    for j0 in (0..nn).step_by(nr) {
                        fwd_b.pack(j0, nr.min(nn - j0), 0, nr, &mut panel[..rows * nr]);
                    }
                }
                std::hint::black_box(&panel);
            });
            let dw_b = Gather::new(&st.buf, &st.row_off, &st.base);
            let gather_t = time(&mut || {
                for _ in 0..groups {
                    for j0 in (0..rows).step_by(nr) {
                        dw_b.pack(j0, nr.min(rows - j0), 0, nr, &mut panel[..nn * nr]);
                    }
                }
                std::hint::black_box(&panel);
            });
            let dense = arb(rows * nn, 4);
            let dense_col: Vec<u32> = (0..nn as u32).collect();
            let dense_red: Vec<u32> = (0..rows).map(|p| (p * nn) as u32).collect();
            let mut c = vec![0.0f32; c_out * nn];
            let gemm = time(&mut || {
                for _ in 0..groups {
                    gemm(
                        c_out,
                        rows,
                        nn,
                        &mut c,
                        nn,
                        |i, p| w[i * rows + p],
                        BSrc::Table(Gather::new(&dense, &dense_col, &dense_red)),
                    );
                }
            });
            let dcols = arb(rows * nn, 5);
            let scatter = time(&mut || {
                for _ in 0..groups {
                    scatter_add(&mut st.buf, &dcols, &st.base, &st.row_off);
                }
            });
            let per = |us: f64| us * 1e3 / (groups * rows * nn) as f64;
            println!(
                "{c_in:2}->{c_out:2}@{hw:2}² g={g:2} {fwd:7.1} {bww:7.1} {bwi:7.1} | {stage_in:8.1} {gather:7.1} {gather_t:8.1} {gemm:7.1} {scatter:7.1}   ({:.2} {:.2} {:.2})",
                per(gather), per(gather_t), per(scatter),
            );
            std::hint::black_box((&out, &dw, &dx, &c));
        }
    }
}
