//! The one seam between the kernels and the instruction set.
//!
//! Every kernel returns the same bits on AVX-512, AVX2 + FMA and the
//! baseline target (a fixed chain of correctly rounded operations; Rust
//! never contracts `a * b + c`), so the ISA decides only the speed.
//! [`native_isa`] is the workspace's only CPU-feature probe, and
//! [`per_isa!`](crate::per_isa) compiles a kernel once per ISA behind one
//! dispatcher. Only three kernels name intrinsics, each because the
//! compiler's code for the portable body measured slower: `pack::gemm`'s
//! AVX-512 tiles (34–63× on the 8- and 12-row tiles), the `Zmm` / `Ymm2`
//! conv lanes (6–31×) and `pack::lanes`'s 8×8 transpose (2.5–4.6×), which
//! the uniform draws' lanes (`rng::fill_uniform`, a portable body) also
//! move their rows through.

use std::sync::OnceLock;

/// An instruction set a kernel can be compiled for, each a superset of the
/// one before (so `a <= native_isa()` is "the CPU runs `a`").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// The baseline target: `f32::mul_add` is libm `fmaf` (slow, but the
    /// same correctly rounded result) on a CPU without FMA.
    Portable,
    /// `avx2` + `fma`: 8-lane `ymm` vectors.
    Avx2,
    /// `avx512f`: 16-lane `zmm` vectors.
    Avx512,
}

/// The widest ISA this CPU runs, detected once.
pub fn native_isa() -> Isa {
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

/// Every ISA this CPU runs, widest first: the ISAs the bitwise
/// equivalence suites pin each kernel on.
pub fn available_isas() -> impl Iterator<Item = Isa> {
    [Isa::Avx512, Isa::Avx2, Isa::Portable]
        .into_iter()
        .filter(|&isa| isa <= native_isa())
}

/// Panics unless the CPU runs `isa`: the guard in front of every kernel
/// instance, since running one built for a missing feature is UB.
#[track_caller]
pub fn assert_runs(isa: Isa) {
    assert!(isa <= native_isa(), "{isa:?} kernel on a CPU without it");
}

/// Defines `fn $name(isa: Isa, args…)`, which runs the `avx512` body
/// compiled with `avx512f`, the `avx2` body compiled with `avx2,fma` or the
/// `base` body on the baseline target, as `isa` says. A body is usually a
/// call of an `#[inline(always)]` function, which is then vectorised for
/// each instance's unit. Const generic parameters are passed through to
/// the instances. An `unsafe fn` makes unsafe instances; its bodies still
/// spell out their `unsafe` blocks.
///
/// `isa` must be one the CPU runs ([`native_isa`] or one of
/// [`available_isas`]); the dispatcher checks it ([`assert_runs`]).
///
/// ```
/// use fp_tensor::isa::{native_isa, Isa};
///
/// #[inline(always)]
/// fn sum_body(xs: &[f32]) -> f32 {
///     xs.iter().sum()
/// }
///
/// fp_tensor::per_isa! {
///     fn sum(isa: Isa, xs: &[f32]) -> f32 {
///         avx512 => sum_body(xs),
///         avx2 => sum_body(xs),
///         base => sum_body(xs),
///     }
/// }
///
/// assert_eq!(sum(native_isa(), &[1.0, 2.0]), 3.0);
/// ```
#[macro_export]
macro_rules! per_isa {
    ($(#[$attr:meta])* $vis:vis unsafe fn $($rest:tt)*) => {
        $crate::per_isa!(@fn [$(#[$attr])* $vis] [unsafe] $($rest)*);
    };
    ($(#[$attr:meta])* $vis:vis fn $($rest:tt)*) => {
        $crate::per_isa!(@fn [$(#[$attr])* $vis] [] $($rest)*);
    };
    (@fn [$($head:tt)*] [$($unsafety:tt)?]
        $name:ident $(<$(const $g:ident: $gt:ty),+>)?
        ($isa:ident: $isa_ty:ty $(, $arg:ident: $ty:ty)* $(,)?) $(-> $ret:ty)? {
            avx512 => $avx512:expr,
            avx2 => $avx2:expr,
            base => $base:expr $(,)?
        }
    ) => {
        $($head)*
        $($unsafety)? fn $name $(<$(const $g: $gt),+>)?(
            $isa: $isa_ty $(, $arg: $ty)*
        ) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f")]
            $($unsafety)? fn avx512 $(<$(const $g: $gt),+>)?($($arg: $ty),*) $(-> $ret)? {
                $avx512
            }
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,fma")]
            $($unsafety)? fn avx2 $(<$(const $g: $gt),+>)?($($arg: $ty),*) $(-> $ret)? {
                $avx2
            }
            $crate::isa::assert_runs($isa);
            match $isa {
                // SAFETY: the CPU runs `isa` (asserted above), and each
                // instance needs no more than its ISA's features.
                #[cfg(target_arch = "x86_64")]
                $crate::isa::Isa::Avx512 => unsafe { avx512 $(::<$($g),+>)?($($arg),*) },
                #[cfg(target_arch = "x86_64")]
                $crate::isa::Isa::Avx2 => unsafe { avx2 $(::<$($g),+>)?($($arg),*) },
                _ => $base,
            }
        }
    };
}
