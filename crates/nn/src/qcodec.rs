//! Compact wire format for stochastically quantized update uploads.
//!
//! The up-link counterpart of [`delta`](crate::delta): where down-links
//! compress *losslessly* (the server knows both endpoints of the diff),
//! the client's update exists only client-side, so the up-link compresses
//! *lossily* via the seeded stochastic quantizer in [`fp_tensor::quant`].
//! This module owns the byte layout and its exact size — the number that
//! flows through `PayloadSpec`/`LatencyModel::dispatch_round_trip` so a
//! quantized upload costs less *virtual time*, not just a smaller ledger
//! entry.
//!
//! # Wire layout
//!
//! ```text
//!   header   8 B   n: u32 (element count), bits: u8, pad: u8, chunk: u16
//!   scales   4 B × ⌈n/chunk⌉      per-chunk max-norm scales (f32 LE)
//!   codes    ⌈n·bits/8⌉ B         signed b-bit codes, two's complement,
//!                                 packed LSB-first into a byte stream
//!                                 (eight codes = `bits` whole bytes)
//!   ---- b = 32 passthrough ----
//!   header   8 B   (bits = 32, no scale table)
//!   raw      4 B × n              the untouched f32 bit patterns (LE)
//! ```
//!
//! At b = 32 encode/decode reproduce the input **bit-for-bit** (including
//! NaNs and signed zeros) — the quantized plane with 32-bit codes *is* the
//! dense path, which is what lets the quant goldens anchor against the
//! dense goldens. At 4-bit with the default 256-element chunk the wire is
//! `8 + ⌈n/256⌉·4 + ⌈n/2⌉ ≈ 0.52·n` bytes against `4·n` dense — a ~7.7×
//! up-link reduction.

use serde::{Deserialize, Serialize};

/// Fixed header size of the quantized-update wire format.
pub const QHEADER_BYTES: u64 = 8;

/// Exact wire size of a quantized upload of `n` f32 elements — the number
/// charged through the latency model. `bits == 32` is the raw passthrough.
pub fn wire_bytes(n: u64, bits: u32, chunk: usize) -> u64 {
    if bits == 32 {
        return QHEADER_BYTES + 4 * n;
    }
    let scales = n.div_ceil(chunk as u64);
    QHEADER_BYTES + 4 * scales + (n * bits as u64).div_ceil(8)
}

/// One encoded update: the scale table plus the packed b-bit code stream
/// (or, at b = 32, the raw f32 bytes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedUpdate {
    /// Element count of the vector this encodes.
    pub n: usize,
    /// Code width in bits (2..=8, or 32 for the exact passthrough).
    pub bits: u32,
    /// Elements per scale chunk.
    pub chunk: usize,
    /// Per-chunk max-norm scales (empty at b = 32).
    pub scales: Vec<f32>,
    /// Packed code bytes (raw LE f32 bytes at b = 32).
    pub data: Vec<u8>,
}

impl QuantizedUpdate {
    /// Encodes `x` with the seeded stochastic quantizer.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=8` ∪ `{32}` or `chunk == 0`.
    pub fn encode(x: &[f32], bits: u32, chunk: usize, seed: u64) -> Self {
        assert!(chunk >= 1, "chunk size must be >= 1");
        if bits == 32 {
            let mut data = Vec::with_capacity(4 * x.len());
            for v in x {
                data.extend_from_slice(&v.to_le_bytes());
            }
            return QuantizedUpdate {
                n: x.len(),
                bits,
                chunk,
                scales: Vec::new(),
                data,
            };
        }
        let (codes, scales) = fp_tensor::quant::quantize(x, bits, chunk, seed);
        QuantizedUpdate {
            n: x.len(),
            bits,
            chunk,
            scales,
            data: pack_codes(&codes, bits),
        }
    }

    /// Decodes back to f32 (exact at b = 32, within one quantization step
    /// per element otherwise).
    ///
    /// # Panics
    ///
    /// Panics if the stored fields are internally inconsistent.
    pub fn decode(&self) -> Vec<f32> {
        if self.bits == 32 {
            assert_eq!(self.data.len(), 4 * self.n, "raw passthrough arity");
            return self
                .data
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect();
        }
        let codes = unpack_codes(&self.data, self.bits, self.n);
        fp_tensor::quant::dequantize(&codes, &self.scales, self.bits, self.chunk)
    }

    /// Exact serialized size of this update on the wire.
    pub fn wire_bytes(&self) -> u64 {
        wire_bytes(self.n as u64, self.bits, self.chunk)
    }
}

// Eight codes are exactly `bits` bytes, so the LSB-first stream is a run
// of byte-aligned groups: each is assembled in (or pulled apart from) one
// `u64` and moved as `bits` little-endian bytes, and the last `n % 8` codes
// are one more, shorter, group. The width is a const parameter so that the
// shifts and the group copy are fixed-size; `pack_codes` / `unpack_codes`
// pick the instance.

/// Calls `$f::<BITS>($args)` for the runtime code width `$bits`.
macro_rules! at_width {
    ($bits:expr, $f:ident($($arg:expr),*)) => {
        match $bits {
            2 => $f::<2>($($arg),*),
            3 => $f::<3>($($arg),*),
            4 => $f::<4>($($arg),*),
            5 => $f::<5>($($arg),*),
            6 => $f::<6>($($arg),*),
            7 => $f::<7>($($arg),*),
            8 => $f::<8>($($arg),*),
            bits => panic!("packed code width must be in 2..=8, got {bits}"),
        }
    };
}

/// Packs signed codes (two's complement, `bits` wide) LSB-first.
fn pack_codes(codes: &[i8], bits: u32) -> Vec<u8> {
    at_width!(bits, pack_width(codes))
}

fn pack_width<const BITS: usize>(codes: &[i8]) -> Vec<u8> {
    let mask = (1u64 << BITS) - 1;
    let word_of = |group: &[i8]| {
        let place = |word, (j, &c): (usize, &i8)| word | (c as u8 as u64 & mask) << (j * BITS);
        group.iter().enumerate().fold(0u64, place)
    };
    let mut out = vec![0u8; (codes.len() * BITS).div_ceil(8)];
    let (groups, last) = codes.as_chunks::<8>();
    let (whole, rest) = out.split_at_mut(groups.len() * BITS);
    for (bytes, group) in whole.as_chunks_mut::<BITS>().0.iter_mut().zip(groups) {
        bytes.copy_from_slice(&word_of(group).to_le_bytes()[..BITS]);
    }
    rest.copy_from_slice(&word_of(last).to_le_bytes()[..rest.len()]);
    out
}

/// Unpacks `n` sign-extended `bits`-wide codes from the LSB-first stream.
///
/// # Panics
///
/// Panics if the stream is shorter than `n` codes require.
fn unpack_codes(data: &[u8], bits: u32, n: usize) -> Vec<i8> {
    assert!(
        data.len() as u64 >= (n as u64 * bits as u64).div_ceil(8),
        "packed code stream too short for {n} codes at {bits} bits"
    );
    at_width!(bits, unpack_width(data, n))
}

fn unpack_width<const BITS: usize>(data: &[u8], n: usize) -> Vec<i8> {
    let word_of = |bytes: &[u8]| {
        let mut word = [0u8; 8];
        word[..bytes.len()].copy_from_slice(bytes);
        u64::from_le_bytes(word)
    };
    // Code `j` of a group, sign-extended: its low `BITS` up against the
    // top of a byte, then back down arithmetically.
    let code =
        |word: u64, j: usize| (((word >> (j * BITS)) as u8) << (8 - BITS)) as i8 >> (8 - BITS);
    let mut out = vec![0i8; n];
    let (groups, last) = out.as_chunks_mut::<8>();
    let (whole, rest) = data[..(n * BITS).div_ceil(8)].split_at(groups.len() * BITS);
    for (codes, bytes) in groups.iter_mut().zip(whole.as_chunks::<BITS>().0) {
        let word = word_of(bytes);
        for (j, c) in codes.iter_mut().enumerate() {
            *c = code(word, j);
        }
    }
    let word = word_of(rest);
    for (j, c) in last.iter_mut().enumerate() {
        *c = code(word, j);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arb(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let v = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed);
                ((v >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn pack_unpack_roundtrips_all_widths() {
        for bits in 2..=8u32 {
            let l = (1i32 << (bits - 1)) - 1;
            let codes: Vec<i8> = (0..200)
                .map(|i| ((i * 7 + 3) % (2 * l + 1) - l) as i8)
                .collect();
            let packed = pack_codes(&codes, bits);
            assert_eq!(
                packed.len() as u64,
                (codes.len() as u64 * bits as u64).div_ceil(8)
            );
            assert_eq!(unpack_codes(&packed, bits, codes.len()), codes);
        }
    }

    /// The layout of record, one bit group at a time (the packer before
    /// it moved whole `u64` groups).
    fn pack_codes_bit_by_bit(codes: &[i8], bits: u32) -> Vec<u8> {
        let mask = (1u64 << bits) - 1;
        let mut out = Vec::new();
        let mut acc = 0u64;
        let mut filled = 0u32;
        for &c in codes {
            acc |= (c as u8 as u64 & mask) << filled;
            filled += bits;
            while filled >= 8 {
                out.push(acc as u8);
                acc >>= 8;
                filled -= 8;
            }
        }
        if filled > 0 {
            out.push(acc as u8);
        }
        out
    }

    /// Lengths around the eight-code group and the 16-lane kernels, plus
    /// the payload `fpbench` ships.
    fn lengths() -> impl Iterator<Item = usize> {
        (0..=67).chain([24_276])
    }

    #[test]
    fn plane_kernel_pack_keeps_the_layout_and_round_trips() {
        for bits in 2..=8u32 {
            let l = (1i32 << (bits - 1)) - 1;
            for len in lengths() {
                // Every level of the width, extremes included.
                let codes: Vec<i8> = (0..len as i32)
                    .map(|i| ((i * 7 + 3) % (2 * l + 1) - l) as i8)
                    .collect();
                let packed = pack_codes(&codes, bits);
                assert_eq!(
                    packed,
                    pack_codes_bit_by_bit(&codes, bits),
                    "bits {bits} len {len}"
                );
                assert_eq!(
                    unpack_codes(&packed, bits, len),
                    codes,
                    "bits {bits} len {len}"
                );
            }
        }
    }

    #[test]
    fn plane_kernel_codec_equals_quantize_then_dequantize() {
        for bits in 2..=8u32 {
            for len in lengths() {
                let mut x = arb(len, 31 * len as u64 + bits as u64);
                if len > 5 {
                    x[1] = -0.0;
                    x[3] = 0.0;
                    x[5] = -x[4];
                }
                for chunk in [1usize, 7, 256] {
                    let q = QuantizedUpdate::encode(&x, bits, chunk, 77);
                    let (codes, scales) = fp_tensor::quant::quantize(&x, bits, chunk, 77);
                    assert_eq!(
                        q.data.len() as u64,
                        q.wire_bytes() - QHEADER_BYTES - 4 * scales.len() as u64,
                        "bits {bits} len {len} chunk {chunk}"
                    );
                    let direct = fp_tensor::quant::dequantize(&codes, &scales, bits, chunk);
                    let via_wire: Vec<u32> = q.decode().iter().map(|v| v.to_bits()).collect();
                    let direct: Vec<u32> = direct.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(via_wire, direct, "bits {bits} len {len} chunk {chunk}");
                }
            }
        }
    }

    #[test]
    fn encode_decode_within_one_step() {
        let x = arb(1000, 17);
        for &bits in &[2u32, 4, 8] {
            let q = QuantizedUpdate::encode(&x, bits, 256, 7);
            assert_eq!(
                q.data.len() as u64,
                (x.len() as u64 * bits as u64).div_ceil(8)
            );
            let d = q.decode();
            let l = ((1i32 << (bits - 1)) - 1) as f32;
            for (ci, (xs, ds)) in x.chunks(256).zip(d.chunks(256)).enumerate() {
                let bound = q.scales[ci] / l + 1e-6;
                for (a, b) in xs.iter().zip(ds) {
                    assert!((a - b).abs() <= bound, "bits {bits} chunk {ci}");
                }
            }
        }
    }

    #[test]
    fn b32_passthrough_is_bit_exact() {
        let mut x = arb(300, 23);
        x[0] = f32::NAN;
        x[1] = -0.0;
        let q = QuantizedUpdate::encode(&x, 32, 256, 7);
        assert!(q.scales.is_empty());
        let d = q.decode();
        let db: Vec<u32> = d.iter().map(|v| v.to_bits()).collect();
        let xb: Vec<u32> = x.iter().map(|v| v.to_bits()).collect();
        assert_eq!(db, xb);
        assert_eq!(q.wire_bytes(), QHEADER_BYTES + 4 * 300);
    }

    #[test]
    fn wire_bytes_matches_layout_and_beats_dense() {
        // 4-bit, chunk 256, n = 10_000: 8 + 40·4 + 5000 = 5168 B vs
        // 40_000 B dense → 7.7×.
        assert_eq!(wire_bytes(10_000, 4, 256), 8 + 160 + 5000);
        assert!(4 * 10_000 / wire_bytes(10_000, 4, 256) >= 7);
        // 2-bit halves the code stream again.
        assert_eq!(wire_bytes(10_000, 2, 256), 8 + 160 + 2500);
        // Sub-chunk vectors still carry one scale.
        assert_eq!(wire_bytes(3, 8, 256), 8 + 4 + 3);
    }

    #[test]
    fn serde_roundtrips() {
        let x = arb(100, 5);
        let q = QuantizedUpdate::encode(&x, 4, 32, 99);
        let json = serde_json::to_string(&q).unwrap();
        let back: QuantizedUpdate = serde_json::from_str(&json).unwrap();
        assert_eq!(back, q);
        let da: Vec<u32> = back.decode().iter().map(|v| v.to_bits()).collect();
        let db: Vec<u32> = q.decode().iter().map(|v| v.to_bits()).collect();
        assert_eq!(da, db);
    }
}
