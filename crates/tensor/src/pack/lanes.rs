//! The lane operations the direct and broadcast kernels are written
//! against ([`Lanes`]: one `zmm`, two `ymm` or sixteen scalars) and the
//! transpose that moves the broadcast dW's operands channel-innermost.
//!
//! Safety contract: a [`Lanes`] type uses its ISA's instructions
//! unchecked, so it may run only inside an instance compiled for that ISA;
//! its loads and stores dereference exactly the masked lanes, which the
//! caller vouches are in bounds.

use crate::isa::{assert_runs, Isa};

// ---------------------------------------------------------- direct kernels

/// Lanes of one direct-kernel vector: 16 consecutive elements of a
/// `(sample, channel)` plane read in place, or one pixel of 16 samples
/// staged sample-innermost.
pub(super) const LANES: usize = 16;

/// The lane operations the direct kernels are written against, for one
/// [`LANES`]-wide vector: one `zmm`, two `ymm`, or sixteen scalars.
/// Masked-off lanes are never dereferenced. The methods use their ISA's
/// instructions unchecked: a vector type is only used inside the
/// `direct::direct_vectors` instances compiled for its ISA.
pub(super) trait Lanes: Copy {
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
pub(super) use lanes_x86::{Ymm2, Zmm};

#[cfg(target_arch = "x86_64")]
mod lanes_x86 {
    use super::Lanes;
    use std::arch::x86_64::*;

    /// One `zmm`; the mask is the `k` register itself.
    #[derive(Clone, Copy)]
    pub(crate) struct Zmm(__m512);

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
    pub(crate) struct Ymm2(__m256, __m256);

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
pub(super) struct Portable16([f32; LANES]);

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

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

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
}

/// `dst[c·ld_dst + r] = src[r·ld_src + c]` for `c < cols` and `r < width`
/// (`≥ rows`), `+0.0` for `r ≥ rows`: the transpose of `src` with its rows
/// padded to `width`. It moves 8×8 blocks (register shuffles on the x86
/// SIMD ISAs), so one block's rows stay in L1 however far apart they are,
/// and it moves bits only. The shuffles are written by hand: the scalar
/// block loop below, compiled for AVX2 or AVX-512, measured 2.5–4.6× slower.
#[allow(clippy::too_many_arguments)]
pub(crate) fn transpose(
    isa: Isa,
    src: &[f32],
    ld_src: usize,
    dst: &mut [f32],
    ld_dst: usize,
    rows: usize,
    cols: usize,
    width: usize,
) {
    assert_runs(isa);
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
                // SAFETY: `s` / `d` hold the block's rows and columns; the
                // CPU runs `isa` (asserted above) and both x86 SIMD ISAs
                // include AVX.
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
