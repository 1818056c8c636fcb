//! Deterministic random-number helpers.
//!
//! The whole reproduction is seeded: every experiment takes a `u64` seed and
//! derives per-component RNGs from it, so runs are bit-reproducible. Normal
//! sampling is implemented locally (Box–Muller) to stay within the approved
//! dependency set (`rand` only, no `rand_distr`).
//!
//! # Uniform draws in jump-ahead lanes
//!
//! [`fill_uniform`] returns bit for bit what `for o in out { *o =
//! rng.gen_range(lo..hi) }` returns and leaves `rng` where that loop
//! leaves it, but computes the draws eight streams abreast. The output is
//! cut into groups of up to `LANES` = 8 blocks of `BLOCK` = 256
//! consecutive draws; lane `l` of a group draws block `l`, so it starts
//! `l · BLOCK` steps into the stream. xoshiro256's state update is linear
//! over GF(2), so `BLOCK` steps are one 256×256 bit matrix, built once
//! from the vendored generator's own step ([`rand::rngs::StdRng::from_state`]
//! on each unit state) and applied through 64 nibble tables (32 KB): one
//! jump per lane. The lanes then run the xoshiro256++ step and the serial
//! loop's float chain (`lo + (hi − lo) · u`, two roundings) side by side,
//! one portable body compiled per ISA by [`per_isa!`](crate::per_isa), and
//! flag every draw that rounds up to `hi`. Such a draw is rejected by the
//! serial loop, which then takes one more word and so moves every later
//! draw by one, so the blocks before the first flagged one are kept, that
//! block is redrawn by the serial loop from its lane's start state, and
//! the lanes resume after it. Lane `l`'s block is column `l` of the rows
//! the lanes write, and moves to the output through the 8×8 transpose of
//! `pack::lanes`. The last lane of a group may be partial; a tail of at
//! most two blocks is drawn serially.

use crate::isa::{native_isa, Isa};
use crate::pack::transpose;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::OnceLock;

/// Creates a deterministic [`StdRng`] from a seed.
///
/// ```
/// use rand::Rng;
/// let mut a = fp_tensor::seeded_rng(1);
/// let mut b = fp_tensor::seeded_rng(1);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A Box–Muller standard-normal sampler.
///
/// Generates pairs of independent N(0,1) samples and caches the spare, so
/// consecutive calls cost one `ln`/`sqrt`/`sincos` per two samples.
#[derive(Debug, Default, Clone)]
pub struct NormalSampler {
    spare: Option<f32>,
}

impl NormalSampler {
    /// Creates a sampler with an empty cache.
    pub fn new() -> Self {
        NormalSampler { spare: None }
    }

    /// Draws one standard-normal sample using `rng` for uniforms.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f32 {
        if let Some(s) = self.spare.take() {
            return s;
        }
        // Box–Muller: u1 in (0,1], u2 in [0,1).
        let u1: f32 = 1.0 - rng.gen::<f32>();
        let u2: f32 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }
}

/// Streams [`fill_uniform`] draws abreast.
const LANES: usize = 8;

/// Consecutive draws per lane: lane `l` of a group starts `l · BLOCK`
/// steps ahead of the group's first draw.
const BLOCK: usize = 256;

/// The shortest run of draws worth one group of lanes: a group runs
/// [`BLOCK`] lane steps however many lanes it fills, so under three lanes
/// the serial loop is as fast.
const MIN_GROUP: usize = 2 * BLOCK;

/// Fills `out` with uniform draws from `[lo, hi)`: bit for bit
/// `for o in out { *o = rng.gen_range(lo..hi) }`, and `rng` ends in the
/// same state (see the module doc for how).
///
/// ```
/// use rand::Rng;
/// let (mut a, mut b) = (fp_tensor::seeded_rng(3), fp_tensor::seeded_rng(3));
/// let mut out = vec![0.0f32; 1000];
/// fp_tensor::rng::fill_uniform(&mut a, -0.5, 0.5, &mut out);
/// assert!(out.iter().all(|&v| v.to_bits() == b.gen_range(-0.5f32..0.5).to_bits()));
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
///
/// # Panics
///
/// Panics, naming the range, unless `lo < hi` and `hi - lo` is finite
/// (the serial loop would never end on an infinite span).
pub fn fill_uniform(rng: &mut StdRng, lo: f32, hi: f32, out: &mut [f32]) {
    match native_isa() {
        // On the baseline target the lanes run two to a vector and the
        // transpose is a scalar loop: slower than the serial loop (4.7 vs
        // 2.9 µs at n = 1 676).
        Isa::Portable => {
            check_range(lo, hi);
            draw_serial(rng, lo, hi, out);
        }
        isa => fill_uniform_on(isa, rng, lo, hi, out),
    }
}

/// Panics unless `lo..hi` is non-empty with a finite span.
fn check_range(lo: f32, hi: f32) {
    assert!(
        lo < hi,
        "fill_uniform on {lo:?}..{hi:?}: the range is empty"
    );
    assert!(
        (hi - lo).is_finite(),
        "fill_uniform on {lo:?}..{hi:?}: hi - lo is not finite"
    );
}

/// [`fill_uniform`] with the lanes compiled for `isa`, which the CPU must
/// run.
fn fill_uniform_on(isa: Isa, rng: &mut StdRng, lo: f32, hi: f32, out: &mut [f32]) {
    check_range(lo, hi);
    let mut block = [[0.0f32; LANES]; BLOCK];
    let mut done = 0;
    while out.len() - done > MIN_GROUP {
        done += draw_group(isa, rng, lo, hi, &mut block, &mut out[done..]);
    }
    draw_serial(rng, lo, hi, &mut out[done..]);
}

/// The reference: one `gen_range` per element.
fn draw_serial(rng: &mut StdRng, lo: f32, hi: f32, out: &mut [f32]) {
    for o in out {
        *o = rng.gen_range(lo..hi);
    }
}

/// Draws the head of `out` (longer than [`MIN_GROUP`]) with one group of
/// lanes, row `i` of `block` holding every lane's draw `i`, and returns
/// how many draws it wrote: every lane's block if no draw was flagged,
/// else the blocks before the first flagged one and that block, redrawn
/// serially. `rng` ends after the last draw written.
fn draw_group(
    isa: Isa,
    rng: &mut StdRng,
    lo: f32,
    hi: f32,
    block: &mut [[f32; LANES]; BLOCK],
    out: &mut [f32],
) -> usize {
    let lanes = out.len().div_ceil(BLOCK).min(LANES);
    let last = (out.len() - (lanes - 1) * BLOCK).min(BLOCK);
    let jump = Jump::get();
    let mut starts = [[0u64; 4]; LANES];
    starts[0] = rng.state();
    for l in 1..lanes {
        starts[l] = jump_on(isa, jump, &starts[l - 1]);
    }
    let mut s: Lanes = [[0; LANES]; 4];
    for (l, start) in starts.iter().enumerate() {
        for (w, word) in start.iter().enumerate() {
            s[w][l] = *word;
        }
    }
    // The last lane stops after `last` draws: flags and state are read
    // there, the full lanes run on to the end of their blocks.
    let (head, rest) = block.split_at_mut(last);
    let at_last = draw_lanes(isa, &mut s, lo, hi, head);
    let end = [
        s[0][lanes - 1],
        s[1][lanes - 1],
        s[2][lanes - 1],
        s[3][lanes - 1],
    ];
    let flagged = if rest.is_empty() {
        at_last
    } else {
        draw_lanes(isa, &mut s, lo, hi, rest) | at_last
    };
    let full = lanes - 1;
    let flagged = flagged & ((1 << full) - 1) | at_last & (1 << full);
    let kept = (flagged.trailing_zeros() as usize).min(lanes);
    // Lane `l`'s block is column `l` of `block`.
    let block = block.as_flattened();
    if kept == lanes {
        transpose(isa, block, LANES, out, BLOCK, last, lanes, last);
        let (rest, tail) = (&block[last * LANES..], &mut out[last..]);
        transpose(
            isa,
            rest,
            LANES,
            tail,
            BLOCK,
            BLOCK - last,
            full,
            BLOCK - last,
        );
        *rng = StdRng::from_state(end);
        return full * BLOCK + last;
    }
    transpose(isa, block, LANES, out, BLOCK, BLOCK, kept, BLOCK);
    let len = if kept == full { last } else { BLOCK };
    *rng = StdRng::from_state(starts[kept]);
    draw_serial(rng, lo, hi, &mut out[kept * BLOCK..][..len]);
    kept * BLOCK + len
}

/// [`LANES`] xoshiro256 states abreast: `s[w][l]` is word `w` of lane `l`.
type Lanes = [[u64; LANES]; 4];

/// `1 / 2^24`: the weight of the 24 bits a float draw keeps.
const UNIT: f32 = 1.0 / (1u32 << 24) as f32;

/// Runs every lane `block.len()` steps: `block[i][l]` is lane `l`'s draw
/// `i`, the serial loop's `lo + (hi - lo) · u` before its rejection test.
/// Returns the lanes (bit `l`) with a draw that test rejects. The state
/// is updated through `s`, a word of every lane per loop: with the words
/// copied into locals, the same body was vectorised in some builds and
/// left scalar in others (2.8× slower).
#[inline(always)]
#[allow(clippy::needless_range_loop)] // one index walks `w`, `s` and `row`
fn lanes_body(s: &mut Lanes, lo: f32, hi: f32, block: &mut [[f32; LANES]]) -> u32 {
    let span = hi - lo;
    // Every draw is at least `lo`; a lane rejects one iff its largest
    // draw is not below `hi`.
    let mut top = [lo; LANES];
    for row in block.iter_mut() {
        // xoshiro256++, as `StdRng::next_u64`.
        let mut w = [0u64; LANES];
        for l in 0..LANES {
            w[l] = s[0][l]
                .wrapping_add(s[3][l])
                .rotate_left(23)
                .wrapping_add(s[0][l]);
        }
        for l in 0..LANES {
            let t = s[1][l] << 17;
            s[2][l] ^= s[0][l];
            s[3][l] ^= s[1][l];
            s[1][l] ^= s[2][l];
            s[0][l] ^= s[3][l];
            s[2][l] ^= t;
            s[3][l] = s[3][l].rotate_left(45);
        }
        // `f32::sample_standard` keeps the word's top 24 bits, exactly.
        for l in 0..LANES {
            let v = lo + span * ((w[l] >> 40) as i32 as f32 * UNIT);
            row[l] = v;
            top[l] = if v > top[l] { v } else { top[l] };
        }
    }
    // Draws are finite (`lo` and the span are), so `>=` is `!(<)`.
    top.iter()
        .enumerate()
        .fold(0, |m, (l, &t)| m | u32::from(t >= hi) << l)
}

crate::per_isa! {
    fn draw_lanes(isa: Isa, s: &mut Lanes, lo: f32, hi: f32, block: &mut [[f32; LANES]]) -> u32 {
        avx512 => lanes_body(s, lo, hi, block),
        avx2 => lanes_body(s, lo, hi, block),
        base => lanes_body(s, lo, hi, block),
    }
}

/// The xoshiro256 state update taken [`BLOCK`] times, a linear map on the
/// 256 state bits: entry `[p][v]` is the image of nibble value `v` at bit
/// `4p` of the state (word `p / 16`), so a state's image is the XOR of its
/// 64 nibbles' entries.
struct Jump([[[u64; 4]; 16]; 64]);

impl Jump {
    /// The table, built on first use.
    fn get() -> &'static Jump {
        static JUMP: OnceLock<Box<Jump>> = OnceLock::new();
        JUMP.get_or_init(Jump::build)
    }

    /// Steps each unit state `BLOCK` times with the generator itself; a
    /// nibble value's entry is the XOR of its set bits' images.
    fn build() -> Box<Jump> {
        let mut table = Box::new(Jump([[[0; 4]; 16]; 64]));
        for (p, entries) in table.0.iter_mut().enumerate() {
            for b in 0..4 {
                let bit = 4 * p + b;
                let mut unit = [0u64; 4];
                unit[bit / 64] = 1 << (bit % 64);
                let mut r = StdRng::from_state(unit);
                for _ in 0..BLOCK {
                    r.next_u64();
                }
                let image = r.state();
                for v in (1usize..16).filter(|v| v >> b == 1) {
                    let low = entries[v & !(1 << b)];
                    entries[v] = std::array::from_fn(|w| low[w] ^ image[w]);
                }
            }
        }
        table
    }
}

/// The state [`BLOCK`] steps after `s`: the XOR of its 64 nibbles'
/// entries, even and odd nibbles into two accumulators (one chain of 64
/// XORs would set the pace).
#[inline(always)]
fn jump_body(table: &Jump, s: &[u64; 4]) -> [u64; 4] {
    let (mut even, mut odd) = ([0u64; 4], [0u64; 4]);
    for (w, &word) in s.iter().enumerate() {
        for k in (0..16).step_by(2) {
            let e0 = &table.0[16 * w + k][((word >> (4 * k)) & 15) as usize];
            let e1 = &table.0[16 * w + k + 1][((word >> (4 * k + 4)) & 15) as usize];
            for i in 0..4 {
                even[i] ^= e0[i];
                odd[i] ^= e1[i];
            }
        }
    }
    for i in 0..4 {
        even[i] ^= odd[i];
    }
    even
}

crate::per_isa! {
    fn jump_on(isa: Isa, table: &Jump, s: &[u64; 4]) -> [u64; 4] {
        avx512 => jump_body(table, s),
        avx2 => jump_body(table, s),
        base => jump_body(table, s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::available_isas;

    #[test]
    fn same_seed_same_stream() {
        let mut a = seeded_rng(99);
        let mut b = seeded_rng(99);
        for _ in 0..10 {
            assert_eq!(a.gen::<u32>(), b.gen::<u32>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(2);
        let va: Vec<u32> = (0..4).map(|_| a.gen()).collect();
        let vb: Vec<u32> = (0..4).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn normal_moments() {
        let mut rng = seeded_rng(1234);
        let mut s = NormalSampler::new();
        let n = 50_000;
        let samples: Vec<f32> = (0..n).map(|_| s.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn normal_samples_are_finite() {
        let mut rng = seeded_rng(7);
        let mut s = NormalSampler::new();
        assert!((0..10_000).all(|_| s.sample(&mut rng).is_finite()));
    }

    /// Runs `fill_uniform_on` and the serial loop from one state and
    /// compares every output's bits and the next word after.
    fn check(isa: Isa, seed: u64, n: usize, lo: f32, hi: f32) {
        let mut lanes = seeded_rng(seed);
        let mut serial = lanes.clone();
        let mut got = vec![f32::NAN; n];
        fill_uniform_on(isa, &mut lanes, lo, hi, &mut got);
        for (i, g) in got.iter().enumerate() {
            let want = serial.gen_range(lo..hi);
            assert_eq!(
                g.to_bits(),
                want.to_bits(),
                "{isa:?} seed {seed} n {n} on {lo}..{hi}: draw {i}"
            );
        }
        assert_eq!(
            lanes.next_u64(),
            serial.next_u64(),
            "{isa:?} seed {seed} n {n} on {lo}..{hi}: stream position after"
        );
    }

    /// Every length shape a group can take (empty, under one block, whole
    /// and partial last lanes, whole groups and one past them, the
    /// synthetic payloads' 1 676 and 24 276), 32 seeds, on every ISA, on
    /// four ranges: the synthetic trainer's; `[1, 1 + 2^-13)`, where a
    /// draw rounds up to `hi` about once in 2 048, so some blocks of a
    /// group are kept and a later one is redrawn serially; `[1,
    /// next_up(1))`, where half the draws do, so nearly every block is; and
    /// a span near `f32::MAX`.
    #[test]
    fn fill_uniform_matches_the_serial_draws() {
        let lengths = [
            0, 1, 255, 256, 511, 512, 513, 1_676, 2_047, 2_048, 2_049, 24_276,
        ];
        let next_up = f32::from_bits(1.0f32.to_bits() + 1);
        let ranges = [
            (-0.01, 0.01),
            (1.0, 1.0 + 1.0 / 8192.0),
            (1.0, next_up),
            (-1.5e38, 1.5e38),
        ];
        for isa in available_isas() {
            for seed in 0..32 {
                for n in lengths {
                    for (lo, hi) in ranges {
                        check(isa, seed, n, lo, hi);
                    }
                }
            }
        }
    }

    /// The nibble tables, applied on every ISA, are `BLOCK` steps of the
    /// generator on random states and on the unit states they were built
    /// from.
    #[test]
    fn fill_uniform_jump_equals_256_steps() {
        assert_eq!(BLOCK, 256);
        let mut src = seeded_rng(11);
        let mut states: Vec<[u64; 4]> = (0..64)
            .map(|_| std::array::from_fn(|_| src.next_u64()))
            .collect();
        states.extend((0..256).map(|bit| {
            let mut s = [0u64; 4];
            s[bit / 64] = 1 << (bit % 64);
            s
        }));
        states.push([u64::MAX; 4]);
        for s in states {
            let mut r = StdRng::from_state(s);
            for _ in 0..BLOCK {
                r.next_u64();
            }
            for isa in available_isas() {
                let got = jump_on(isa, Jump::get(), &s);
                assert_eq!(got, r.state(), "{isa:?} from {s:x?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "fill_uniform on -inf..0.0: hi - lo is not finite")]
    fn fill_uniform_rejects_an_infinite_bound() {
        fill_uniform(&mut seeded_rng(1), f32::NEG_INFINITY, 0.0, &mut [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "fill_uniform on -3.4e38..3.4e38: hi - lo is not finite")]
    fn fill_uniform_rejects_an_overflowing_span() {
        fill_uniform(&mut seeded_rng(1), -3.4e38, 3.4e38, &mut [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "fill_uniform on 0.5..0.5: the range is empty")]
    fn fill_uniform_rejects_an_empty_range() {
        fill_uniform(&mut seeded_rng(1), 0.5, 0.5, &mut []);
    }

    /// Draw time at the synthetic payloads' sizes, serial loop against the
    /// lanes on every ISA: `cargo test -p fp-tensor --release --lib
    /// tune_draws_probe -- --ignored --nocapture`. Best of nine trials.
    #[test]
    #[ignore = "timing probe"]
    fn tune_draws_probe() {
        let time = |f: &mut dyn FnMut()| {
            f();
            let trial = |f: &mut dyn FnMut()| {
                let t = std::time::Instant::now();
                for _ in 0..200 {
                    f();
                }
                t.elapsed().as_nanos() as f64 / 200.0 / 1e3
            };
            (0..9).map(|_| trial(f)).fold(f64::INFINITY, f64::min)
        };
        Jump::get();
        for n in [1_676usize, 24_276] {
            let mut out = vec![0.0f32; n];
            let mut rng = seeded_rng(5);
            let serial = time(&mut || draw_serial(&mut rng, -0.01, 0.01, &mut out));
            print!("n {n:>6}  serial {serial:>8.2} µs");
            for isa in available_isas() {
                let lanes = time(&mut || fill_uniform_on(isa, &mut rng, -0.01, 0.01, &mut out));
                print!("  {isa:?} {lanes:>7.2} µs");
            }
            println!();
        }
        let t = std::time::Instant::now();
        let reps = 10_000;
        let mut s = [1u64, 2, 3, 4];
        for _ in 0..reps {
            s = jump_on(native_isa(), Jump::get(), &s);
        }
        println!(
            "jump {:.3} µs ({:x})",
            t.elapsed().as_nanos() as f64 / reps as f64 / 1e3,
            s[0]
        );
        let t = std::time::Instant::now();
        std::hint::black_box(Jump::build());
        println!("table build {:.3} ms", t.elapsed().as_secs_f64() * 1e3);
    }
}
