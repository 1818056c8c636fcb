use super::{direct::*, dw::*, gemm::*, lanes::*};
use crate::backend::{lowered_conv2d_backward_input, lowered_conv2d_forward};
use crate::backend::{Backend, Parallel, Scalar};
use crate::im2col::Conv2dGeometry;
use crate::isa::{available_isas, native_isa};
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
fn gemm_cross_isa_bitwise_equal_to_canonical_chain() {
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
fn gemm_tile_config_bitwise_invariant() {
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
fn gemm_cols_packing_matches_rows_packing() {
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

/// The transpose against a plain index loop on every ISA: rows padded
/// with `+0.0` up to `width` (8-row blocks wholly past `rows` included),
/// `cols` off the 8-column grid, source and destination strides wider than
/// the block, and the destination columns past `width` left as they were.
/// It moves bits: `-0.0`, infinities and NaN payloads arrive unchanged.
#[test]
fn conv_dw_transpose_matches_index_loop() {
    let specials = [-0.0, f32::INFINITY, f32::NAN, -f32::NAN, f32::MIN_POSITIVE];
    // (rows, cols, width, ld_src, ld_dst)
    for (rows, cols, width, ld_src, ld_dst) in [
        (8, 8, 8, 8, 8),
        (3, 5, 16, 5, 16),    // rows < width: block r0 = 8 is all padding
        (0, 7, 8, 7, 8),      // no source rows at all
        (8, 3, 24, 3, 24),    // blocks r0 = 8, 16 start at or past `rows`
        (13, 21, 16, 24, 20), // ragged cols, both strides wider
        (17, 1, 32, 1, 35),   // one column, rows ending mid-block
        (12, 70, 16, 70, 17),
    ] {
        let mut src = arb(rows * ld_src, (rows * 31 + cols) as u64);
        for (v, &x) in src.iter_mut().step_by(5).zip(specials.iter().cycle()) {
            *v = x;
        }
        let dst0 = arb(cols * ld_dst, 7);
        let mut want = dst0.clone();
        for c in 0..cols {
            for r in 0..width {
                want[c * ld_dst + r] = if r < rows { src[r * ld_src + c] } else { 0.0 };
            }
        }
        let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        for isa in available_isas() {
            let mut got = dst0.clone();
            transpose(isa, &src, ld_src, &mut got, ld_dst, rows, cols, width);
            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{isa:?} rows {rows} cols {cols} width {width}");
        }
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
