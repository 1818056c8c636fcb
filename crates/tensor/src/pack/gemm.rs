//! The packed GEMM: the register tiles, [`drive_packed`] over them and the
//! entry points (module doc of [`super`], "Structure").
//!
//! Safety contract: a tile reads `kc` packed steps of an `MR`-row and an
//! `NR`-column panel and reads and writes one `MR×NR` tile at row stride
//! `ldc`. [`drive_packed`] hands it only panels it packed and tiles it
//! bounds-checked as slices, on an ISA [`tile_for`] checked the CPU runs.

use super::WS;
use crate::isa::{assert_runs, native_isa, Isa};

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

// ------------------------------------------------------------ microkernels

/// A register-tiled `MR×NR` inner kernel over packed panels: `run(isa,
/// apanel, bpanel, kc, c, ldc)` is `C ← C + Apanel·Bpanel` over `kc`
/// reduction steps (the file's safety contract).
#[derive(Clone, Copy)]
struct Tile {
    mr: usize,
    nr: usize,
    run: unsafe fn(Isa, *const f32, *const f32, usize, *mut f32, usize),
}

impl Tile {
    /// The portable tile [`mk_portable`] compiled for the ISA it runs on.
    fn portable<const MR: usize, const NR: usize>() -> Self {
        Tile {
            mr: MR,
            nr: NR,
            run: mk_tile::<MR, NR>,
        }
    }

    /// The hand-written AVX-512 tile [`x86::mk512`], `MR × NU·16`.
    #[cfg(target_arch = "x86_64")]
    fn avx512<const MR: usize, const NU: usize>() -> Self {
        Tile {
            mr: MR,
            nr: NU * 16,
            run: x86::mk512::<MR, NU>,
        }
    }
}

/// The tile for `isa` and an `m × n` output. Skinny-M shapes (`m ≤ 4`)
/// take the 4-row tiles, skinny-N shapes the one-vector-wide ones — less
/// zero-padded panel work on degenerate shapes. Every tile computes the
/// same canonical chain, so the choice never affects results.
fn tile_for(isa: Isa, m: usize, n: usize) -> Tile {
    assert_runs(isa);
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => match (m, n) {
            (..=4, ..=16) => Tile::avx512::<4, 1>(),
            (..=4, _) => Tile::avx512::<4, 2>(),
            (_, ..=16) => Tile::avx512::<8, 1>(),
            (..=8, _) => Tile::avx512::<8, 2>(),
            _ => Tile::avx512::<12, 2>(),
        },
        Isa::Avx2 => match (m, n) {
            (..=4, ..=8) => Tile::portable::<4, 8>(),
            (..=4, _) => Tile::portable::<4, 16>(),
            (_, ..=8) => Tile::portable::<6, 8>(),
            _ => Tile::portable::<6, 16>(),
        },
        _ if m <= 4 => Tile::portable::<4, 16>(),
        _ => Tile::portable::<8, 16>(),
    }
}

/// Largest `MR·NR` of any kernel variant (scratch-tile capacity).
const MAX_TILE: usize = 12 * 32;
/// Widest panel of any kernel variant.
pub(super) const MAX_NR: usize = 32;

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// `MR×(NU·16)` AVX-512 microkernel: `NU` zmm column vectors per row,
    /// one broadcast FMA per packed A element, C loaded first and stored
    /// last so the per-element chain is the canonical in-order fold. The
    /// [`Tile`](super::Tile) signature's ISA is always AVX-512 here.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::needless_range_loop)] // index loops mirror the register tile
    pub unsafe fn mk512<const MR: usize, const NU: usize>(
        _: super::Isa,
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
}

/// Portable `MR×NR` microkernel on `f32::mul_add` — the same correctly
/// rounded fused operation the SIMD lanes perform, in the same order.
/// [`mk_tile`] compiled for `avx2,fma`, it is also the AVX2 tile.
#[inline(always)]
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

crate::per_isa! {
    /// [`mk_portable`] compiled for `isa`.
    unsafe fn mk_tile<const MR: usize, const NR: usize>(
        isa: Isa,
        apanel: *const f32,
        bpanel: *const f32,
        kc: usize,
        c: *mut f32,
        ldc: usize,
    ) {
        avx512 => unsafe { mk_portable::<MR, NR>(apanel, bpanel, kc, c, ldc) },
        avx2 => unsafe { mk_portable::<MR, NR>(apanel, bpanel, kc, c, ldc) },
        base => unsafe { mk_portable::<MR, NR>(apanel, bpanel, kc, c, ldc) },
    }
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
fn drive_packed(
    isa: Isa,
    tile: Tile,
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
    let (mr, nr) = (tile.mr, tile.nr);
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
                            let c = &mut out[i0 * ldc + j0..][..(mr - 1) * ldc + nr];
                            // SAFETY: `c` spans the full MR×NR tile at
                            // stride `ldc` (the slice above checked it),
                            // both panels hold `kcb` packed steps, and
                            // `tile_for` asserted the CPU runs `isa`.
                            unsafe {
                                (tile.run)(isa, apanel, bpanel, kcb, c.as_mut_ptr(), ldc);
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
                                (tile.run)(isa, apanel, bpanel, kcb, scratch.as_mut_ptr(), nr);
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
    let tile = tile_for(isa, m, n);
    WS.with(|ws| {
        let ws = &mut *ws.borrow_mut();
        pack_a_all(tile.mr, m, kdim, tiles.kc, &a_at, &mut ws.apack);
        drive_packed(
            isa,
            tile,
            m,
            kdim,
            n,
            out,
            ldc,
            tiles,
            &ws.apack,
            &mut ws.bpack,
            b_src,
        );
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
