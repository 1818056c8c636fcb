//! The pluggable kernel backend.
//!
//! Every GEMM and convolution-lowering call in the workspace flows through
//! a [`Backend`] trait object, so execution strategy is chosen once and
//! inherited everywhere (layers, trainers, federated loops):
//!
//! * [`Scalar`] — the portable reference kernels (`matmul.rs`,
//!   `im2col.rs`): simple loops, the ground truth the parallel backend is
//!   property-tested against.
//! * [`Parallel`] — the panel-packed, cache-blocked engine in
//!   `pack.rs`: AVX-512 / AVX2+FMA register-tiled microkernels over
//!   packed panels (detected at runtime, portable `mul_add` fallback),
//!   batch-folded conv kernels that gather their panels from padded
//!   staging by offset table, splitting output rows across scoped
//!   threads for large problems. Thread count is configurable so outer
//!   client-level parallelism can budget inner kernel threads (see
//!   [`crate::parallel::thread_split`]).
//!
//! A process-wide default backend ([`default_backend`] /
//! [`set_default_backend`]) seeds newly built layers; individual models
//! can be re-pointed with `set_backend` in `fp-nn`.

use crate::im2col::Conv2dGeometry;
use crate::matmul::{matmul_into, matmul_nt_into, matmul_tn_into};
use std::sync::{Arc, OnceLock, RwLock};

/// A shared, thread-safe backend handle.
pub type BackendHandle = Arc<dyn Backend>;

/// The kernel set a compute backend must provide.
///
/// All matrix kernels **accumulate** into `out` (callers zero it for a
/// plain product), matching the reference kernels in `matmul.rs`.
pub trait Backend: Send + Sync + std::fmt::Debug {
    /// Human-readable backend name (used in logs and bench reports).
    fn name(&self) -> &'static str;

    /// `out[m×n] += a[m×k] · b[k×n]`.
    fn matmul_into(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize);

    /// `out[k×n] += aᵀ · b` with `a: [m×k]`, `b: [m×n]` (weight grads).
    fn matmul_tn_into(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize);

    /// `out[m×k] += a · bᵀ` with `a: [m×n]`, `b: [k×n]` (input grads).
    fn matmul_nt_into(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, n: usize, k: usize);

    /// Lowers one `[c_in, h, w]` image into the im2col matrix (the
    /// reference lowering; only the default `conv2d_*` paths call it).
    fn im2col(&self, img: &[f32], geo: &Conv2dGeometry, cols: &mut [f32]) {
        crate::im2col::im2col(img, geo, cols);
    }

    /// Adjoint of [`Backend::im2col`]: scatter-adds a cols-shaped gradient
    /// back into an image-shaped buffer.
    fn col2im(&self, cols: &[f32], geo: &Conv2dGeometry, img_grad: &mut [f32]) {
        crate::im2col::col2im(cols, geo, img_grad);
    }

    /// Batched conv forward: `out[s] += W·im2col(x[s])` for every sample,
    /// plus `bias` per output channel when given. `out` must be
    /// zero-initialized by the caller for a plain convolution.
    ///
    /// `ws` is a caller-held scratch buffer reused across calls (a conv
    /// layer passes its per-layer workspace): the reference path
    /// materializes the im2col columns in it; the [`Parallel`] override
    /// stores packed weight panels there instead, stages a fold group of
    /// zero-padded images per thread and runs one GEMM per group with the
    /// batch folded into its columns — no `cols` buffer at all.
    #[allow(clippy::too_many_arguments)]
    fn conv2d_forward(
        &self,
        x: &[f32],
        w: &[f32],
        bias: Option<&[f32]>,
        out: &mut [f32],
        batch: usize,
        c_out: usize,
        geo: &Conv2dGeometry,
        ws: &mut Vec<f32>,
    ) {
        let (rows, n_cols, img_len) = check_conv2d_args(x, w, bias, out, batch, c_out, geo);
        ws.resize(rows * n_cols, 0.0);
        for s in 0..batch {
            self.im2col(
                &x[s * img_len..(s + 1) * img_len],
                geo,
                &mut ws[..rows * n_cols],
            );
            let out_s = &mut out[s * c_out * n_cols..(s + 1) * c_out * n_cols];
            self.matmul_into(w, &ws[..rows * n_cols], out_s, c_out, rows, n_cols);
            if let Some(bias) = bias {
                for (co, out_row) in out_s.chunks_mut(n_cols).enumerate() {
                    for v in out_row {
                        *v += bias[co];
                    }
                }
            }
        }
    }

    /// Conv weight gradient: `dw += Σ_s grad[s] · im2col(x[s])ᵀ` with
    /// `dw: [c_out, c_in·k²]` (accumulated; zero it for a plain gradient).
    /// Every `dw` element accumulates sample-major, column-ascending; the
    /// [`Parallel`] override keeps that chain while folding a group of
    /// samples into each GEMM's reduction dimension.
    #[allow(clippy::too_many_arguments)]
    fn conv2d_backward_weights(
        &self,
        x: &[f32],
        grad: &[f32],
        dw: &mut [f32],
        batch: usize,
        c_out: usize,
        geo: &Conv2dGeometry,
        ws: &mut Vec<f32>,
    ) {
        let (rows, n_cols, img_len) = check_conv2d_args(x, dw, None, grad, batch, c_out, geo);
        ws.resize(rows * n_cols, 0.0);
        for s in 0..batch {
            self.im2col(
                &x[s * img_len..(s + 1) * img_len],
                geo,
                &mut ws[..rows * n_cols],
            );
            let g_s = &grad[s * c_out * n_cols..(s + 1) * c_out * n_cols];
            self.matmul_nt_into(g_s, &ws[..rows * n_cols], dw, c_out, n_cols, rows);
        }
    }

    /// Conv input gradient: `dx[s] += col2im(Wᵀ · grad[s])` per sample.
    /// `dx` must be zero-initialized by the caller for a plain gradient.
    /// The [`Parallel`] override computes `Wᵀ · grad` for a fold group of
    /// samples at once and scatters it back through the same offset
    /// tables its forward gathers with, in `col2im`'s accumulation order.
    #[allow(clippy::too_many_arguments)]
    fn conv2d_backward_input(
        &self,
        w: &[f32],
        grad: &[f32],
        dx: &mut [f32],
        batch: usize,
        c_out: usize,
        geo: &Conv2dGeometry,
        ws: &mut Vec<f32>,
    ) {
        let (rows, n_cols, img_len) = check_conv2d_args(dx, w, None, grad, batch, c_out, geo);
        ws.resize(rows * n_cols, 0.0);
        for s in 0..batch {
            let g_s = &grad[s * c_out * n_cols..(s + 1) * c_out * n_cols];
            let dcols = &mut ws[..rows * n_cols];
            dcols.fill(0.0);
            self.matmul_tn_into(w, g_s, dcols, c_out, rows, n_cols);
            let dx_s = &mut dx[s * img_len..(s + 1) * img_len];
            self.col2im(&ws[..rows * n_cols], geo, dx_s);
        }
    }
}

/// Validates the shared buffer-shape contract of the `conv2d_*` entry
/// points and returns `(col_rows, col_cols, image_len)`. The `w`/`out`
/// arguments double as `dw`/`grad` in the backward variants — the size
/// relations are identical.
fn check_conv2d_args(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    out: &[f32],
    batch: usize,
    c_out: usize,
    geo: &Conv2dGeometry,
) -> (usize, usize, usize) {
    let rows = geo.col_rows();
    let n_cols = geo.col_cols();
    let img_len = geo.c_in * geo.h * geo.w;
    assert_eq!(x.len(), batch * img_len, "image-shaped buffer size");
    assert_eq!(w.len(), c_out * rows, "weight-shaped buffer size");
    assert_eq!(out.len(), batch * c_out * n_cols, "cols-shaped buffer size");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), c_out, "bias buffer size");
    }
    (rows, n_cols, img_len)
}

// ------------------------------------------------------------------ Scalar

/// The single-threaded reference backend (the seed repository's original
/// i-k-j kernels).
#[derive(Debug, Clone, Copy, Default)]
pub struct Scalar;

impl Backend for Scalar {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn matmul_into(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        matmul_into(a, b, out, m, k, n);
    }

    fn matmul_tn_into(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        matmul_tn_into(a, b, out, m, k, n);
    }

    fn matmul_nt_into(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, n: usize, k: usize) {
        matmul_nt_into(a, b, out, m, n, k);
    }
}

// ---------------------------------------------------------------- Parallel

/// Minimum multiply-accumulate count before a kernel will spawn threads;
/// below this, scoped-thread setup costs more than it buys.
const PAR_MACS_THRESHOLD: usize = 4 << 20;

/// The optimized backend: register-tiled SIMD kernels plus row-parallel
/// execution across scoped threads.
///
/// Results are bit-identical for any thread count (rows are partitioned,
/// never split), so changing the parallelism never changes numerics.
#[derive(Debug, Clone, Copy)]
pub struct Parallel {
    threads: usize,
}

impl Parallel {
    /// A backend using the full hardware thread budget.
    pub fn new() -> Self {
        Parallel {
            threads: crate::parallel::max_threads(),
        }
    }

    /// A backend capped at `threads` kernel threads (`0` means the full
    /// hardware budget; `1` keeps the fast kernels but never spawns).
    pub fn with_threads(threads: usize) -> Self {
        Parallel {
            threads: if threads == 0 {
                crate::parallel::max_threads()
            } else {
                threads
            },
        }
    }

    /// The configured kernel-thread cap.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Threads to actually use for a problem with `rows` independent
    /// output rows and `macs` multiply-accumulates.
    fn plan(&self, rows: usize, macs: usize) -> usize {
        if self.threads <= 1 || macs < PAR_MACS_THRESHOLD {
            1
        } else {
            self.threads.min(rows.max(1))
        }
    }
}

impl Default for Parallel {
    fn default() -> Self {
        Parallel::new()
    }
}

/// Splits `out` into per-thread contiguous row chunks and runs `body` on
/// each chunk in a scoped thread. `body(r0, r1, chunk)` sees rows
/// `[r0, r1)`.
///
/// Chunk boundaries are aligned to multiples of 4 rows so they coincide
/// with the kernels' register-tile boundaries — that makes results
/// bit-identical for every thread count (each row's arithmetic is
/// independent of which chunk it lands in).
pub(crate) fn for_row_chunks<F>(
    out: &mut [f32],
    rows: usize,
    row_len: usize,
    threads: usize,
    body: F,
) where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    debug_assert_eq!(out.len(), rows * row_len);
    if threads <= 1 || rows == 0 {
        body(0, rows, out);
        return;
    }
    let chunk_rows = rows.div_ceil(threads).next_multiple_of(4);
    std::thread::scope(|s| {
        let mut rest = out;
        let mut r0 = 0;
        while r0 < rows {
            let r1 = (r0 + chunk_rows).min(rows);
            let (chunk, tail) = rest.split_at_mut((r1 - r0) * row_len);
            rest = tail;
            let body = &body;
            s.spawn(move || body(r0, r1, chunk));
            r0 = r1;
        }
    });
}

impl Backend for Parallel {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn matmul_into(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        assert_eq!(a.len(), m * k, "lhs buffer size");
        assert_eq!(b.len(), k * n, "rhs buffer size");
        assert_eq!(out.len(), m * n, "out buffer size");
        let threads = self.plan(m, m * k * n);
        for_row_chunks(out, m, n, threads, |r0, r1, chunk| {
            crate::pack::gemm(
                r1 - r0,
                k,
                n,
                chunk,
                n,
                |i, p| a[(r0 + i) * k + p],
                crate::pack::BSrc::Rows(&|p, j0, dst| {
                    let w = dst.len();
                    dst.copy_from_slice(&b[p * n + j0..p * n + j0 + w]);
                }),
            );
        });
    }

    fn matmul_tn_into(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        assert_eq!(a.len(), m * k, "lhs buffer size");
        assert_eq!(b.len(), m * n, "rhs buffer size");
        assert_eq!(out.len(), k * n, "out buffer size");
        let threads = self.plan(k, m * k * n);
        // Output rows are A's columns; the reduction runs over A/B rows.
        for_row_chunks(out, k, n, threads, |p0, p1, chunk| {
            crate::pack::gemm(
                p1 - p0,
                m,
                n,
                chunk,
                n,
                |i, red| a[red * k + p0 + i],
                crate::pack::BSrc::Rows(&|red, j0, dst| {
                    let w = dst.len();
                    dst.copy_from_slice(&b[red * n + j0..red * n + j0 + w]);
                }),
            );
        });
    }

    fn matmul_nt_into(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, n: usize, k: usize) {
        assert_eq!(a.len(), m * n, "lhs buffer size");
        assert_eq!(b.len(), k * n, "rhs buffer size");
        assert_eq!(out.len(), m * k, "out buffer size");
        let threads = self.plan(m, m * k * n);
        // B is read transposed, but its *source* rows are contiguous:
        // the Cols packing streams each `b` row once and scatters it
        // into the L1-resident panel.
        for_row_chunks(out, m, k, threads, |r0, r1, chunk| {
            crate::pack::gemm(
                r1 - r0,
                n,
                k,
                chunk,
                k,
                |i, p| a[(r0 + i) * n + p],
                crate::pack::BSrc::Cols(&|j, p0, dst| {
                    let w = dst.len();
                    dst.copy_from_slice(&b[j * n + p0..j * n + p0 + w]);
                }),
            );
        });
    }

    fn conv2d_forward(
        &self,
        x: &[f32],
        w: &[f32],
        bias: Option<&[f32]>,
        out: &mut [f32],
        batch: usize,
        c_out: usize,
        geo: &Conv2dGeometry,
        ws: &mut Vec<f32>,
    ) {
        let (rows, n_cols, _) = check_conv2d_args(x, w, bias, out, batch, c_out, geo);
        let threads = self.plan(batch, batch * c_out * rows * n_cols);
        crate::pack::conv2d_forward_fused(x, w, bias, out, batch, c_out, geo, ws, threads);
    }

    fn conv2d_backward_weights(
        &self,
        x: &[f32],
        grad: &[f32],
        dw: &mut [f32],
        batch: usize,
        c_out: usize,
        geo: &Conv2dGeometry,
        _ws: &mut Vec<f32>,
    ) {
        let (rows, n_cols, _) = check_conv2d_args(x, dw, None, grad, batch, c_out, geo);
        let threads = self.plan(c_out, batch * c_out * rows * n_cols);
        crate::pack::conv2d_backward_weights_fused(x, grad, dw, batch, c_out, geo, threads);
    }

    fn conv2d_backward_input(
        &self,
        w: &[f32],
        grad: &[f32],
        dx: &mut [f32],
        batch: usize,
        c_out: usize,
        geo: &Conv2dGeometry,
        ws: &mut Vec<f32>,
    ) {
        let (rows, n_cols, _) = check_conv2d_args(dx, w, None, grad, batch, c_out, geo);
        let threads = self.plan(batch, batch * c_out * rows * n_cols);
        crate::pack::conv2d_backward_input_fused(w, grad, dx, batch, c_out, geo, ws, threads);
    }
}

// ----------------------------------------------------------- default pick

fn default_cell() -> &'static RwLock<BackendHandle> {
    static CELL: OnceLock<RwLock<BackendHandle>> = OnceLock::new();
    CELL.get_or_init(|| RwLock::new(Arc::new(Parallel::new())))
}

/// The process-wide default backend (initially [`Parallel`] with the full
/// hardware thread budget). Newly constructed layers pick this up.
pub fn default_backend() -> BackendHandle {
    default_cell().read().expect("backend lock").clone()
}

/// Replaces the process-wide default backend.
pub fn set_default_backend(backend: BackendHandle) {
    *default_cell().write().expect("backend lock") = backend;
}

/// A backend handle budgeted to `threads` kernel threads: `0` returns the
/// process default, otherwise a [`Parallel`] capped at `threads`.
///
/// This is what client-level parallel loops hand to each worker so that
/// outer × inner parallelism never oversubscribes the machine.
pub fn backend_for_threads(threads: usize) -> BackendHandle {
    if threads == 0 {
        default_backend()
    } else {
        Arc::new(Parallel::with_threads(threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::test_support::arb;

    fn assert_close(got: &[f32], want: &[f32], tag: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let tol = 1e-4 * (1.0 + w.abs());
            assert!((g - w).abs() <= tol, "{tag}[{i}]: {g} vs {w}");
        }
    }

    /// Shapes chosen to hit every tile tail: sub-tile, exact-tile, ragged.
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (3, 5, 7),
        (4, 16, 16),
        (5, 17, 33),
        (8, 300, 24),
        (33, 7, 130),
        (64, 64, 64),
    ];

    #[test]
    fn parallel_matmul_matches_scalar() {
        for &threads in &[1, 3] {
            let backend = Parallel::with_threads(threads);
            for &(m, k, n) in SHAPES {
                let a = arb(m * k, 1);
                let b = arb(k * n, 2);
                let mut want = arb(m * n, 3);
                let mut got = want.clone();
                Scalar.matmul_into(&a, &b, &mut want, m, k, n);
                backend.matmul_into(&a, &b, &mut got, m, k, n);
                assert_close(&got, &want, &format!("nn {m}x{k}x{n} t{threads}"));
            }
        }
    }

    #[test]
    fn parallel_tn_matches_scalar() {
        for &(m, k, n) in SHAPES {
            let a = arb(m * k, 4);
            let b = arb(m * n, 5);
            let mut want = arb(k * n, 6);
            let mut got = want.clone();
            Scalar.matmul_tn_into(&a, &b, &mut want, m, k, n);
            Parallel::with_threads(2).matmul_tn_into(&a, &b, &mut got, m, k, n);
            assert_close(&got, &want, &format!("tn {m}x{k}x{n}"));
        }
    }

    #[test]
    fn parallel_nt_matches_scalar() {
        for &(m, n, k) in SHAPES {
            let a = arb(m * n, 7);
            let b = arb(k * n, 8);
            let mut want = arb(m * k, 9);
            let mut got = want.clone();
            Scalar.matmul_nt_into(&a, &b, &mut want, m, n, k);
            Parallel::with_threads(2).matmul_nt_into(&a, &b, &mut got, m, n, k);
            assert_close(&got, &want, &format!("nt {m}x{n}x{k}"));
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // Force the threaded path with a problem above the MACs threshold.
        let (m, k, n) = (64, 128, 640);
        let a = arb(m * k, 12);
        let b = arb(k * n, 13);
        let mut one = vec![0.0; m * n];
        Parallel::with_threads(1).matmul_into(&a, &b, &mut one, m, k, n);
        for threads in [2, 3, 5] {
            let mut many = vec![0.0; m * n];
            Parallel::with_threads(threads).matmul_into(&a, &b, &mut many, m, k, n);
            assert_eq!(one, many, "threads={threads} must be bit-identical");
        }
    }

    /// The transposed kernels must also survive real row chunking: these
    /// shapes sit above `PAR_MACS_THRESHOLD`, so with threads > 1 the
    /// chunk offsets (`p0 > 0` in tn, row offsets in nt) are exercised,
    /// including ragged last chunks (64 rows over 3 threads).
    #[test]
    fn threaded_tn_and_nt_match_scalar_and_single_thread() {
        // tn: out has k = 64 rows; macs = 640·64·128 ≈ 5.2M.
        let (m, k, n) = (640, 64, 128);
        let a = arb(m * k, 14);
        let b = arb(m * n, 15);
        let mut want = vec![0.0; k * n];
        Scalar.matmul_tn_into(&a, &b, &mut want, m, k, n);
        let mut one = vec![0.0; k * n];
        Parallel::with_threads(1).matmul_tn_into(&a, &b, &mut one, m, k, n);
        for threads in [2, 3, 5] {
            let mut got = vec![0.0; k * n];
            Parallel::with_threads(threads).matmul_tn_into(&a, &b, &mut got, m, k, n);
            assert_eq!(one, got, "tn threads={threads} must be bit-identical");
            assert_close(&got, &want, &format!("tn threaded t{threads}"));
        }

        // nt: out has m = 64 rows; macs identical.
        let (m, n, k) = (64, 640, 128);
        let a = arb(m * n, 16);
        let b = arb(k * n, 17);
        let mut want = vec![0.0; m * k];
        Scalar.matmul_nt_into(&a, &b, &mut want, m, n, k);
        let mut one = vec![0.0; m * k];
        Parallel::with_threads(1).matmul_nt_into(&a, &b, &mut one, m, n, k);
        for threads in [2, 3, 5] {
            let mut got = vec![0.0; m * k];
            Parallel::with_threads(threads).matmul_nt_into(&a, &b, &mut got, m, n, k);
            assert_eq!(one, got, "nt threads={threads} must be bit-identical");
            assert_close(&got, &want, &format!("nt threaded t{threads}"));
        }
    }

    /// NOTE: this test swaps the process-wide default backend while the
    /// rest of the binary runs concurrently; every other test that touches
    /// `default_backend()` (e.g. `Tensor::matmul` unit tests) must stay
    /// correct under either backend (they use exact-integer cases).
    #[test]
    fn default_backend_is_settable() {
        let initial = default_backend();
        assert_eq!(initial.name(), "parallel");
        set_default_backend(Arc::new(Scalar));
        assert_eq!(default_backend().name(), "scalar");
        set_default_backend(initial);
        assert_eq!(backend_for_threads(0).name(), "parallel");
        assert_eq!(backend_for_threads(2).name(), "parallel");
    }
}
