//! Seeded stochastic quantization kernels for lossy up-link compression.
//!
//! An update vector is split into fixed-size chunks; each chunk stores one
//! `f32` max-norm scale `s = max |x_i|` and one signed b-bit code per
//! element. With `L = 2^(b-1) - 1` levels, element `x` quantizes to
//!
//! ```text
//!   u    = fmix32(i·GOLD ^ seed) >> 8, scaled to [0, 1)   (per-index draw)
//!   q    = min(⌊|x|·(L/s) + u⌋, L)                        (stochastic round)
//!   code = sign(x)·q ∈ [-L, L]                            (stored as i8)
//!   x̂    = code·(s/L)                                     (dequantize)
//! ```
//!
//! so the rounding is unbiased conditioned on the chunk scale and the
//! per-element error is bounded by `s/L`.
//!
//! # Bit-identity across ISAs and thread counts
//!
//! Exactly like the GEMM engine (`crate::pack`), every lane evaluates one
//! canonical operation chain — plain multiply then plain add (never an FMA),
//! `floor`, a `min`-style clamp written so the scalar branch mirrors
//! `min_ps` semantics, and a sign applied from the *sign bit* of `x` (what
//! the SIMD blend sees) rather than a `< 0.0` compare. The stochastic draw
//! is a counter-based murmur3 `fmix32` of the element's global index, so it
//! is independent of evaluation order. The chunk scale is a maximum over
//! `|x_i|` with NaNs dropped — a set function — so its scan runs as
//! independent lanes reduced at the end and still returns the bits of the
//! sequential `max` chain. The AVX-512, AVX2, and scalar paths
//! are therefore bit-identical, chunks are independent (no carried state),
//! and results cannot depend on how a caller partitions work across
//! threads. The unit tests pin all of this on every ISA the host can run.

use crate::pack::{native_isa, Isa};

/// Golden-ratio index mixer feeding the per-element hash counter.
const GOLD: u32 = 0x9E37_79B9;

/// Largest code magnitude representable at `bits`: `2^(bits-1) - 1`.
///
/// # Panics
///
/// Panics unless `2 <= bits <= 8` (b = 32 is a codec-layer passthrough and
/// never reaches these kernels).
pub fn max_level(bits: u32) -> i32 {
    assert!(
        (2..=8).contains(&bits),
        "quantization bits must be in 2..=8, got {bits}"
    );
    (1i32 << (bits - 1)) - 1
}

/// murmur3 finalizer: a cheap, SIMD-friendly 32-bit bijective mixer.
#[inline(always)]
fn fmix32(mut h: u32) -> u32 {
    h ^= h >> 16;
    h = h.wrapping_mul(0x85EB_CA6B);
    h ^= h >> 13;
    h = h.wrapping_mul(0xC2B2_AE35);
    h ^= h >> 16;
    h
}

/// The per-element stochastic draw in `[0, 1)` for global index `i`.
#[inline(always)]
fn draw(i: u32, sfold: u32) -> f32 {
    let h = fmix32(i.wrapping_mul(GOLD) ^ sfold);
    // Top 24 bits → an exactly representable f32 in [0, 1).
    (h >> 8) as f32 * (1.0 / 16_777_216.0)
}

/// Quantizes `x` into signed b-bit codes with per-chunk max-norm scales,
/// appending nothing: `codes` and `scales` are cleared and refilled (the
/// `Vec`s keep their capacity, so callers can reuse scratch buffers).
///
/// # Panics
///
/// Panics if `bits` is outside `2..=8` or `chunk == 0`.
pub fn quantize_into(
    x: &[f32],
    bits: u32,
    chunk: usize,
    seed: u64,
    codes: &mut Vec<i8>,
    scales: &mut Vec<f32>,
) {
    let l = max_level(bits);
    assert!(chunk >= 1, "chunk size must be >= 1");
    codes.clear();
    codes.resize(x.len(), 0);
    scales.clear();
    scales.reserve(x.len().div_ceil(chunk));
    let sfold = (seed ^ (seed >> 32)) as u32;
    let isa = native_isa();
    for (ci, xs) in x.chunks(chunk).enumerate() {
        let start = ci * chunk;
        let scale = chunk_scale(isa, xs);
        scales.push(scale);
        let lf = l as f32;
        let inv = if scale > 0.0 { lf / scale } else { 0.0 };
        let out = &mut codes[start..start + xs.len()];
        quantize_chunk(isa, xs, start as u32, sfold, inv, lf, out);
    }
}

/// Allocating convenience wrapper over [`quantize_into`].
pub fn quantize(x: &[f32], bits: u32, chunk: usize, seed: u64) -> (Vec<i8>, Vec<f32>) {
    let mut codes = Vec::new();
    let mut scales = Vec::new();
    quantize_into(x, bits, chunk, seed, &mut codes, &mut scales);
    (codes, scales)
}

/// Reconstructs the f32 vector from codes + scales. `out` is cleared and
/// refilled (capacity preserved for scratch reuse).
///
/// # Panics
///
/// Panics if `bits`/`chunk` are invalid, a code exceeds the level bound,
/// or `scales` does not cover `codes` at the given chunking.
pub fn dequantize_into(codes: &[i8], scales: &[f32], bits: u32, chunk: usize, out: &mut Vec<f32>) {
    let l = max_level(bits);
    assert!(chunk >= 1, "chunk size must be >= 1");
    assert_eq!(
        scales.len(),
        codes.len().div_ceil(chunk),
        "scale table does not match code count at chunk {chunk}"
    );
    out.clear();
    out.resize(codes.len(), 0.0);
    let isa = native_isa();
    for (ci, cs) in codes.chunks(chunk).enumerate() {
        let start = ci * chunk;
        let scale = scales[ci];
        debug_assert!(
            cs.iter().all(|&c| (c as i32).abs() <= l),
            "code exceeds level bound {l}"
        );
        // `scale / L` in f32 once per chunk; every element multiplies by
        // the identical value, so scalar and SIMD lanes agree bitwise.
        let dq = scale / l as f32;
        dequantize_chunk(isa, cs, dq, &mut out[start..start + cs.len()]);
    }
}

/// Allocating convenience wrapper over [`dequantize_into`].
pub fn dequantize(codes: &[i8], scales: &[f32], bits: u32, chunk: usize) -> Vec<f32> {
    let mut out = Vec::new();
    dequantize_into(codes, scales, bits, chunk, &mut out);
    out
}

// ---------------------------------------------------------------- dispatch

fn quantize_chunk(isa: Isa, xs: &[f32], base: u32, sfold: u32, inv: f32, lf: f32, out: &mut [i8]) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { quantize_chunk_avx512(xs, base, sfold, inv, lf, out) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { quantize_chunk_avx2(xs, base, sfold, inv, lf, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Isa::Avx512 | Isa::Avx2 => quantize_chunk_scalar(xs, base, sfold, inv, lf, out),
        Isa::Portable => quantize_chunk_scalar(xs, base, sfold, inv, lf, out),
    }
}

/// The chunk's max-norm scale `max |x_i|`, NaNs ignored, `0.0` when empty.
///
/// The defining chain is `fold(0.0, |m, v| m.max(v.abs()))`. `f32::max`
/// drops a NaN operand and `abs` leaves no `-0.0`, so over what remains it
/// is the maximum of a set — associative and commutative — and the scan
/// runs as independent lanes reduced at the end instead of one
/// chunk-long dependency chain. Every ISA path returns the same bits.
fn chunk_scale(isa: Isa, xs: &[f32]) -> f32 {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { chunk_scale_avx512(xs) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { chunk_scale_avx2(xs) },
        #[cfg(not(target_arch = "x86_64"))]
        Isa::Avx512 | Isa::Avx2 => chunk_scale_scalar(xs),
        Isa::Portable => chunk_scale_scalar(xs),
    }
}

fn dequantize_chunk(isa: Isa, cs: &[i8], dq: f32, out: &mut [f32]) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { dequantize_chunk_avx512(cs, dq, out) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { dequantize_chunk_avx2(cs, dq, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Isa::Avx512 | Isa::Avx2 => dequantize_chunk_scalar(cs, dq, out),
        Isa::Portable => dequantize_chunk_scalar(cs, dq, out),
    }
}

// ------------------------------------------------------- scalar reference

/// The canonical per-element chain; every SIMD lane mirrors this exactly.
#[inline(always)]
fn quantize_one(x: f32, i: u32, sfold: u32, inv: f32, lf: f32) -> i8 {
    let u = draw(i, sfold);
    let a = x.abs();
    let v = a * inv; // plain mul — no FMA with the add below
    let w = v + u;
    let f = w.floor();
    // Written as `(f < lf) ? f : lf` to mirror `min_ps(f, lf)` exactly
    // (including its NaN-propagates-second-operand behavior).
    let c = if f < lf { f } else { lf };
    let q = c as i32;
    // Sign from the sign *bit* (what the SIMD path blends on), not a
    // `< 0.0` compare: -0.0 yields q = 0 either way, and the two only
    // disagree on negative NaN inputs, which the SIMD lanes sign by bit.
    if x.is_sign_negative() {
        -q as i8
    } else {
        q as i8
    }
}

fn quantize_chunk_scalar(xs: &[f32], base: u32, sfold: u32, inv: f32, lf: f32, out: &mut [i8]) {
    for (j, (&x, o)) in xs.iter().zip(out.iter_mut()).enumerate() {
        *o = quantize_one(x, base + j as u32, sfold, inv, lf);
    }
}

/// Folds `xs` into the running maximum `m` (the sequential chain itself).
#[inline(always)]
fn max_abs_from(m: f32, xs: &[f32]) -> f32 {
    xs.iter().fold(m, |m, v| m.max(v.abs()))
}

fn chunk_scale_scalar(xs: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let mut groups = xs.chunks_exact(8);
    for group in &mut groups {
        for (lane, v) in lanes.iter_mut().zip(group) {
            *lane = lane.max(v.abs());
        }
    }
    max_abs_from(max_abs_from(0.0, groups.remainder()), &lanes)
}

fn dequantize_chunk_scalar(cs: &[i8], dq: f32, out: &mut [f32]) {
    for (&c, o) in cs.iter().zip(out.iter_mut()) {
        *o = c as f32 * dq;
    }
}

// ------------------------------------------------------------------- avx2

/// # Safety
///
/// Caller must have verified `avx2` support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_chunk_avx2(
    xs: &[f32],
    base: u32,
    sfold: u32,
    inv: f32,
    lf: f32,
    out: &mut [i8],
) {
    use std::arch::x86_64::*;
    let n = xs.len();
    let mut j = 0usize;
    let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let gold = _mm256_set1_epi32(GOLD as i32);
    let sfoldv = _mm256_set1_epi32(sfold as i32);
    let m1 = _mm256_set1_epi32(0x85EB_CA6Bu32 as i32);
    let m2 = _mm256_set1_epi32(0xC2B2_AE35u32 as i32);
    let u_scale = _mm256_set1_ps(1.0 / 16_777_216.0);
    let absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
    let invv = _mm256_set1_ps(inv);
    let lfv = _mm256_set1_ps(lf);
    while j + 8 <= n {
        let idx = _mm256_add_epi32(_mm256_set1_epi32((base + j as u32) as i32), lanes);
        let mut h = _mm256_xor_si256(_mm256_mullo_epi32(idx, gold), sfoldv);
        h = _mm256_xor_si256(h, _mm256_srli_epi32(h, 16));
        h = _mm256_mullo_epi32(h, m1);
        h = _mm256_xor_si256(h, _mm256_srli_epi32(h, 13));
        h = _mm256_mullo_epi32(h, m2);
        h = _mm256_xor_si256(h, _mm256_srli_epi32(h, 16));
        let u = _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_srli_epi32(h, 8)), u_scale);
        let x = _mm256_loadu_ps(xs.as_ptr().add(j));
        let a = _mm256_and_ps(x, absmask);
        let v = _mm256_mul_ps(a, invv); // same mul-then-add chain as scalar
        let w = _mm256_add_ps(v, u);
        let f = _mm256_floor_ps(w);
        let c = _mm256_min_ps(f, lfv);
        let q = _mm256_cvttps_epi32(c);
        // Two's-complement negate lanes whose input sign bit is set.
        let sgn = _mm256_srai_epi32(_mm256_castps_si256(x), 31);
        let signed = _mm256_sub_epi32(_mm256_xor_si256(q, sgn), sgn);
        let mut tmp = [0i32; 8];
        _mm256_storeu_si256(tmp.as_mut_ptr().cast(), signed);
        for (o, &t) in out[j..j + 8].iter_mut().zip(tmp.iter()) {
            *o = t as i8;
        }
        j += 8;
    }
    quantize_chunk_scalar(&xs[j..], base + j as u32, sfold, inv, lf, &mut out[j..]);
}

/// # Safety
///
/// Caller must have verified `avx2` support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn chunk_scale_avx2(xs: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
    let mut acc = _mm256_setzero_ps();
    let mut groups = xs.chunks_exact(8);
    for group in &mut groups {
        let a = _mm256_and_ps(_mm256_loadu_ps(group.as_ptr()), absmask);
        // `max_ps` returns its second operand when either is NaN: a NaN
        // input leaves the (never-NaN) accumulator as it was.
        acc = _mm256_max_ps(a, acc);
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    max_abs_from(max_abs_from(0.0, groups.remainder()), &lanes)
}

/// # Safety
///
/// Caller must have verified `avx2` support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dequantize_chunk_avx2(cs: &[i8], dq: f32, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = cs.len();
    let mut j = 0usize;
    let dqv = _mm256_set1_ps(dq);
    while j + 8 <= n {
        let bytes = _mm_loadl_epi64(cs.as_ptr().add(j).cast());
        let q = _mm256_cvtepi8_epi32(bytes);
        let v = _mm256_mul_ps(_mm256_cvtepi32_ps(q), dqv);
        _mm256_storeu_ps(out.as_mut_ptr().add(j), v);
        j += 8;
    }
    dequantize_chunk_scalar(&cs[j..], dq, &mut out[j..]);
}

// ----------------------------------------------------------------- avx512

/// # Safety
///
/// Caller must have verified `avx512f` (nothing here needs `avx512dq` or
/// `avx512bw`: `abs_ps` and the `vpmovdb` narrowing are both `avx512f`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn quantize_chunk_avx512(
    xs: &[f32],
    base: u32,
    sfold: u32,
    inv: f32,
    lf: f32,
    out: &mut [i8],
) {
    use std::arch::x86_64::*;
    let n = xs.len();
    let mut j = 0usize;
    let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let gold = _mm512_set1_epi32(GOLD as i32);
    let sfoldv = _mm512_set1_epi32(sfold as i32);
    let m1 = _mm512_set1_epi32(0x85EB_CA6Bu32 as i32);
    let m2 = _mm512_set1_epi32(0xC2B2_AE35u32 as i32);
    let u_scale = _mm512_set1_ps(1.0 / 16_777_216.0);
    let invv = _mm512_set1_ps(inv);
    let lfv = _mm512_set1_ps(lf);
    while j + 16 <= n {
        let idx = _mm512_add_epi32(_mm512_set1_epi32((base + j as u32) as i32), lanes);
        let mut h = _mm512_xor_si512(_mm512_mullo_epi32(idx, gold), sfoldv);
        h = _mm512_xor_si512(h, _mm512_srli_epi32(h, 16));
        h = _mm512_mullo_epi32(h, m1);
        h = _mm512_xor_si512(h, _mm512_srli_epi32(h, 13));
        h = _mm512_mullo_epi32(h, m2);
        h = _mm512_xor_si512(h, _mm512_srli_epi32(h, 16));
        let u = _mm512_mul_ps(_mm512_cvtepi32_ps(_mm512_srli_epi32(h, 8)), u_scale);
        let x = _mm512_loadu_ps(xs.as_ptr().add(j));
        let a = _mm512_abs_ps(x);
        let v = _mm512_mul_ps(a, invv);
        let w = _mm512_add_ps(v, u);
        // floor = round toward negative infinity, exceptions suppressed —
        // identical to `_mm256_floor_ps` / `f32::floor`.
        let f = _mm512_roundscale_ps::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(w);
        let c = _mm512_min_ps(f, lfv);
        let q = _mm512_cvttps_epi32(c);
        let sgn = _mm512_srai_epi32(_mm512_castps_si512(x), 31);
        let signed = _mm512_sub_epi32(_mm512_xor_si512(q, sgn), sgn);
        // Truncating narrow, as `t as i8` (codes are within ±127 anyway).
        let bytes = _mm512_cvtepi32_epi8(signed);
        _mm_storeu_si128(out[j..j + 16].as_mut_ptr().cast(), bytes);
        j += 16;
    }
    quantize_chunk_scalar(&xs[j..], base + j as u32, sfold, inv, lf, &mut out[j..]);
}

/// # Safety
///
/// Caller must have verified `avx512f` support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn chunk_scale_avx512(xs: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let mut acc = _mm512_setzero_ps();
    let mut groups = xs.chunks_exact(16);
    for group in &mut groups {
        // Second operand on NaN, as in the AVX2 scan.
        acc = _mm512_max_ps(_mm512_abs_ps(_mm512_loadu_ps(group.as_ptr())), acc);
    }
    let mut lanes = [0.0f32; 16];
    _mm512_storeu_ps(lanes.as_mut_ptr(), acc);
    max_abs_from(max_abs_from(0.0, groups.remainder()), &lanes)
}

/// # Safety
///
/// Caller must have verified `avx512f` support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn dequantize_chunk_avx512(cs: &[i8], dq: f32, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = cs.len();
    let mut j = 0usize;
    let dqv = _mm512_set1_ps(dq);
    while j + 16 <= n {
        let bytes = _mm_loadu_si128(cs.as_ptr().add(j).cast());
        let q = _mm512_cvtepi8_epi32(bytes);
        let v = _mm512_mul_ps(_mm512_cvtepi32_ps(q), dqv);
        _mm512_storeu_ps(out.as_mut_ptr().add(j), v);
        j += 16;
    }
    dequantize_chunk_scalar(&cs[j..], dq, &mut out[j..]);
}

// ------------------------------------------------------------------ tests

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::available_isas;
    use crate::test_support::arb;

    /// Runs the full quantize pass pinned to one ISA (same chunking and
    /// scale computation as the public entry point).
    fn quantize_with_isa(isa: Isa, x: &[f32], bits: u32, chunk: usize, seed: u64) -> Vec<i8> {
        let l = max_level(bits);
        let sfold = (seed ^ (seed >> 32)) as u32;
        let mut codes = vec![0i8; x.len()];
        for (ci, xs) in x.chunks(chunk).enumerate() {
            let start = ci * chunk;
            let mut scale = 0.0f32;
            for &v in xs {
                scale = scale.max(v.abs());
            }
            let lf = l as f32;
            let inv = if scale > 0.0 { lf / scale } else { 0.0 };
            quantize_chunk(
                isa,
                xs,
                start as u32,
                sfold,
                inv,
                lf,
                &mut codes[start..start + xs.len()],
            );
        }
        codes
    }

    fn dequantize_with_isa(
        isa: Isa,
        codes: &[i8],
        scales: &[f32],
        bits: u32,
        chunk: usize,
    ) -> Vec<f32> {
        let l = max_level(bits);
        let mut out = vec![0.0f32; codes.len()];
        for (ci, cs) in codes.chunks(chunk).enumerate() {
            let start = ci * chunk;
            let dq = scales[ci] / l as f32;
            dequantize_chunk(isa, cs, dq, &mut out[start..start + cs.len()]);
        }
        out
    }

    #[test]
    fn isas_agree_bitwise() {
        // Lengths straddle the 8- and 16-lane boundaries and chunk tails.
        for &(len, chunk) in &[(1usize, 4usize), (7, 8), (64, 16), (257, 64), (1000, 256)] {
            let x = arb(len, 0xDEAD_BEEF);
            for &bits in &[2u32, 4, 8] {
                let isas = available_isas();
                let reference = quantize_with_isa(Isa::Portable, &x, bits, chunk, 42);
                let scales: Vec<f32> = x
                    .chunks(chunk)
                    .map(|c| c.iter().fold(0.0f32, |m, v| m.max(v.abs())))
                    .collect();
                let dref = dequantize_with_isa(Isa::Portable, &reference, &scales, bits, chunk);
                for &isa in &isas {
                    let got = quantize_with_isa(isa, &x, bits, chunk, 42);
                    assert_eq!(
                        got, reference,
                        "{isa:?} codes diverge at len {len} bits {bits}"
                    );
                    let d = dequantize_with_isa(isa, &got, &scales, bits, chunk);
                    let dbits: Vec<u32> = d.iter().map(|v| v.to_bits()).collect();
                    let rbits: Vec<u32> = dref.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        dbits, rbits,
                        "{isa:?} dequant diverges at len {len} bits {bits}"
                    );
                }
            }
        }
    }

    #[test]
    fn plane_kernel_scale_scan_matches_sequential_chain() {
        let specials = [
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -3.5,
            f32::MIN_POSITIVE,
        ];
        // Lengths around the 8- and 16-lane groups and their tails.
        for len in (0..=67).chain([255, 256, 257, 1000]) {
            let base = arb(len, 0x5CA1E ^ len as u64);
            let mut cases = vec![
                base.clone(),
                vec![f32::NAN; len],
                vec![-0.0; len],
                base.iter().map(|v| v * 1e-3).collect(),
            ];
            for (k, &sp) in specials.iter().enumerate() {
                // One special, then every third element special.
                let mut one = base.clone();
                let mut many = base.clone();
                if len > 0 {
                    one[(k * 5) % len] = sp;
                }
                for v in many.iter_mut().skip(k % 3).step_by(3) {
                    *v = sp;
                }
                cases.push(one);
                cases.push(many);
            }
            for xs in &cases {
                let want = xs.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                for isa in available_isas() {
                    let got = chunk_scale(isa, xs);
                    assert_eq!(got.to_bits(), want.to_bits(), "{isa:?} len {len}: {xs:?}");
                }
            }
        }
    }

    #[test]
    fn codes_respect_level_bound_and_error_bound() {
        let x = arb(1234, 7);
        for &bits in &[2u32, 3, 4, 8] {
            let l = max_level(bits);
            let chunk = 100;
            let (codes, scales) = quantize(&x, bits, chunk, 99);
            assert!(codes.iter().all(|&c| (c as i32).abs() <= l));
            let d = dequantize(&codes, &scales, bits, chunk);
            for (ci, (xs, ds)) in x.chunks(chunk).zip(d.chunks(chunk)).enumerate() {
                let bound = scales[ci] / l as f32 + 1e-6;
                for (a, b) in xs.iter().zip(ds) {
                    assert!(
                        (a - b).abs() <= bound,
                        "error {} above bound {bound} (chunk {ci})",
                        (a - b).abs()
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_in_seed_and_sensitive_to_it() {
        let x = arb(512, 3);
        let a = quantize(&x, 4, 128, 1234);
        let b = quantize(&x, 4, 128, 1234);
        assert_eq!(a, b);
        let c = quantize(&x, 4, 128, 1235);
        assert_ne!(a.0, c.0, "different seeds must draw differently");
    }

    #[test]
    fn zero_and_constant_chunks() {
        // All-zero chunk: scale 0 → every code 0 → dequant exact.
        let z = vec![0.0f32; 40];
        let (codes, scales) = quantize(&z, 4, 16, 5);
        assert!(codes.iter().all(|&c| c == 0));
        assert!(scales.iter().all(|&s| s == 0.0));
        assert!(dequantize(&codes, &scales, 4, 16).iter().all(|&v| v == 0.0));
        // Constant chunk: |x| = scale → v = L exactly, floor(L + u) with
        // u < 1 clamps to L → dequant reproduces the constant exactly.
        let c = vec![-0.75f32; 33];
        let (codes, scales) = quantize(&c, 4, 16, 5);
        assert!(codes.iter().all(|&q| q == -7));
        let d = dequantize(&codes, &scales, 4, 16);
        assert!(d.iter().all(|&v| v == -0.75));
    }

    #[test]
    fn negative_zero_codes_positive_zero() {
        let x = [-0.0f32, 0.5, -0.5];
        let (codes, scales) = quantize(&x, 4, 4, 11);
        assert_eq!(codes[0], 0);
        let d = dequantize(&codes, &scales, 4, 4);
        assert_eq!(d[0].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    #[should_panic(expected = "quantization bits")]
    fn rejects_out_of_range_bits() {
        max_level(9);
    }
}
