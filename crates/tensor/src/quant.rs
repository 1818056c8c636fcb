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
//! # One body, compiled per ISA
//!
//! Each per-chunk kernel — quantize, scale scan, dequantize — is one safe
//! `#[inline(always)]` loop that [`per_isa!`](crate::per_isa) compiles
//! for `avx512f`, for `avx2` + `fma` and for the baseline target, like
//! `fp_fl::aggregate`'s trimmed mean; the compiler vectorises each instance and nothing here names an
//! intrinsic. Every element evaluates one canonical chain: plain multiply
//! then plain add (never an FMA), `floor`, the clamp `if f < lf { f } else
//! { lf }` (`min_ps`'s operand order: a NaN takes `L`), and the sign from
//! the *sign bit* of `x`. The draw is a counter hash of the element's
//! global index, independent of evaluation order. The chunk scale is a
//! maximum over `|x_i|` with NaNs dropped — a set function — so it runs as
//! 16 independent lanes and still returns the bits of the sequential `max`
//! chain. The instances are therefore bit-identical, chunks carry no
//! state, and results cannot depend on how a caller splits work across
//! threads; the unit tests pin this on every ISA the host can run.
//!
//! The clamped level `c` lies in `[0, L]`, so it converts exactly as the
//! mantissa bits of `c + 2^23` (a debug build overflow-checks that). A
//! saturating cast (`as i32`, `as u8`, `as i16`) is banned in these
//! bodies: its range handling keeps the loop scalar, ~4× slower.

use crate::isa::{native_isa, Isa};

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
    // Top 24 bits → an exactly representable f32 in [0, 1). Converted
    // through `i32` (exact below 2^24): AVX2 has no unsigned convert.
    (h >> 8) as i32 as f32 * (1.0 / 16_777_216.0)
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
        // the identical value, so all lanes agree bitwise.
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

// ------------------------------------------------------------------ bodies

/// The canonical per-element chain (module doc).
#[inline(always)]
fn quantize_one(x: f32, i: u32, sfold: u32, inv: f32, lf: f32) -> i8 {
    let u = draw(i, sfold);
    let v = x.abs() * inv; // plain mul — no FMA with the add below
    let f = (v + u).floor();
    // `min_ps(f, lf)`: a NaN `f` takes `lf`, so `c` is always in [0, L].
    let c = if f < lf { f } else { lf };
    // Exact for integers in [0, 2^23): 2^23 + c has mantissa c.
    let q = ((c + 8_388_608.0).to_bits() - 0x4B00_0000) as i32;
    // Negate by the sign *bit*: -0.0 yields 0 either way, and a negative
    // NaN is negated like any other negative input.
    let s = (x.to_bits() as i32) >> 31;
    ((q ^ s) - s) as i8
}

/// Quantizes one chunk whose first element has global index `base`.
#[inline(always)]
fn quantize_body(xs: &[f32], base: u32, sfold: u32, inv: f32, lf: f32, out: &mut [i8]) {
    for (j, (&x, o)) in xs.iter().zip(out.iter_mut()).enumerate() {
        *o = quantize_one(x, base + j as u32, sfold, inv, lf);
    }
}

/// Folds `xs` into the running maximum `m` (the sequential chain itself).
#[inline(always)]
fn max_abs_from(m: f32, xs: &[f32]) -> f32 {
    xs.iter().fold(m, |m, v| m.max(v.abs()))
}

/// The chunk's max-norm scale `max |x_i|`, NaNs ignored, `0.0` when empty.
///
/// The defining chain is `fold(0.0, |m, v| m.max(v.abs()))`. `f32::max`
/// drops a NaN operand and `abs` leaves no `-0.0`, so over what remains it
/// is the maximum of a set — associative and commutative — and the scan
/// runs as 16 independent lanes reduced at the end instead of one
/// chunk-long dependency chain. `if a > m { a } else { m }` is `max_ps(a,
/// m)`: a NaN `a` leaves the (never-NaN) lane as it was.
#[inline(always)]
fn chunk_scale_body(xs: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 16];
    let mut groups = xs.chunks_exact(16);
    for group in &mut groups {
        for (m, v) in lanes.iter_mut().zip(group) {
            let a = v.abs();
            *m = if a > *m { a } else { *m };
        }
    }
    max_abs_from(max_abs_from(0.0, groups.remainder()), &lanes)
}

#[inline(always)]
fn dequantize_body(cs: &[i8], dq: f32, out: &mut [f32]) {
    for (&c, o) in cs.iter().zip(out.iter_mut()) {
        *o = c as f32 * dq;
    }
}

crate::per_isa! {
    fn quantize_chunk(
        isa: Isa,
        xs: &[f32],
        base: u32,
        sfold: u32,
        inv: f32,
        lf: f32,
        out: &mut [i8],
    ) {
        avx512 => quantize_body(xs, base, sfold, inv, lf, out),
        avx2 => quantize_body(xs, base, sfold, inv, lf, out),
        base => quantize_body(xs, base, sfold, inv, lf, out),
    }
}
crate::per_isa! {
    fn chunk_scale(isa: Isa, xs: &[f32]) -> f32 {
        avx512 => chunk_scale_body(xs),
        avx2 => chunk_scale_body(xs),
        base => chunk_scale_body(xs),
    }
}
crate::per_isa! {
    fn dequantize_chunk(isa: Isa, cs: &[i8], dq: f32, out: &mut [f32]) {
        avx512 => dequantize_body(cs, dq, out),
        avx2 => dequantize_body(cs, dq, out),
        base => dequantize_body(cs, dq, out),
    }
}

// ------------------------------------------------------------------ tests

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::available_isas;
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

    /// IEEE specials, subnormals and a near-subnormal, cycled into inputs.
    const SPECIALS: [f32; 9] = [
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        f32::MIN_POSITIVE,
        -1e-40,
        1e-45,
    ];

    /// Integers in `[-L, L]` with `±L` leading every chunk, so the scale is
    /// `L`, `inv` is exactly 1 and every `|x|·inv` lands on a level.
    fn on_levels(len: usize, chunk: usize, bits: u32) -> Vec<f32> {
        let l = max_level(bits);
        (0..len)
            .map(|i| match i % chunk {
                0 if i % 2 == 0 => l as f32,
                0 => -l as f32,
                j => ((j as i32 * 7919) % (2 * l + 1) - l) as f32,
            })
            .collect()
    }

    #[test]
    fn plane_kernel_quantizer_isas_agree_bitwise() {
        // Lengths straddle the 16-lane groups and chunk tails.
        let shapes = [
            (1usize, 4usize),
            (7, 8),
            (33, 16),
            (64, 16),
            (257, 64),
            (300, 300),
            (1000, 7),
            (1000, 256),
            (4096, 1),
            (5, 256),
        ];
        for &(len, chunk) in &shapes {
            for bits in 2..=8u32 {
                let base = arb(len, 0xDEAD_BEEF ^ len as u64);
                let mut special = base.clone();
                for (k, v) in special.iter_mut().enumerate().step_by(7) {
                    *v = SPECIALS[(k / 7) % SPECIALS.len()];
                }
                for x in [base, special, on_levels(len, chunk, bits)] {
                    for seed in [42u64, 0x5EED_0000_0001] {
                        assert_isas_agree(&x, bits, chunk, seed);
                    }
                }
            }
        }
    }

    /// The per-element chain spelled the obvious way: the draw through
    /// `u32`, a saturating `as i32` and a branch on the sign bit.
    fn quantize_one_reference(x: f32, i: u32, sfold: u32, inv: f32, lf: f32) -> i8 {
        let u = (fmix32(i.wrapping_mul(GOLD) ^ sfold) >> 8) as f32 * (1.0 / 16_777_216.0);
        let f = (x.abs() * inv + u).floor();
        let q = f.min(lf) as i32;
        if x.is_sign_negative() {
            -q as i8
        } else {
            q as i8
        }
    }

    /// Codes and dequantized values of every available ISA equal the
    /// reference chain's bitwise.
    fn assert_isas_agree(x: &[f32], bits: u32, chunk: usize, seed: u64) {
        let len = x.len();
        let lf = max_level(bits) as f32;
        let sfold = (seed ^ (seed >> 32)) as u32;
        let scales: Vec<f32> = x
            .chunks(chunk)
            .map(|c| c.iter().fold(0.0f32, |m, v| m.max(v.abs())))
            .collect();
        let reference: Vec<i8> = x
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let scale = scales[i / chunk];
                let inv = if scale > 0.0 { lf / scale } else { 0.0 };
                quantize_one_reference(v, i as u32, sfold, inv, lf)
            })
            .collect();
        let dref = dequantize_with_isa(Isa::Portable, &reference, &scales, bits, chunk);
        let rbits: Vec<u32> = dref.iter().map(|v| v.to_bits()).collect();
        for isa in available_isas() {
            let got = quantize_with_isa(isa, x, bits, chunk, seed);
            assert_eq!(
                got, reference,
                "{isa:?} codes diverge at len {len} chunk {chunk} bits {bits}: {x:?}"
            );
            let d = dequantize_with_isa(isa, &got, &scales, bits, chunk);
            let dbits: Vec<u32> = d.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                dbits, rbits,
                "{isa:?} dequant diverges at len {len} chunk {chunk} bits {bits}"
            );
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
