//! Edge-device hardware simulator.
//!
//! The paper's systems results (Figures 2, 6, 7; Tables 4, 7, 8) are
//! latency and memory measurements on a pool of real edge devices. This
//! crate reproduces them analytically:
//!
//! * [`memory`] — a ZeRO-style training-memory estimator
//!   (`12 B/param` model states + `4 B · batch · stored activations`),
//!   calibrated against the paper's Table 8;
//! * [`flops`] — MACs accounting matching the paper's Table 7/8 convention
//!   (`FLOPs of one forward = per-sample MACs × batch`), plus the
//!   adversarial-training multiplier (`PGD-n` costs `n` extra
//!   forward+backward pairs per iteration);
//! * [`devices`] — the exact device pools of Appendix B.1 (Tables 5–6)
//!   with real-time availability degradation and balanced/unbalanced
//!   sampling;
//! * [`latency`] — the training-latency model: compute time from available
//!   TFLOPS, data-access time from memory-swap traffic over storage I/O
//!   bandwidth (Rajbhandari et al. 2020-style offload accounting), and
//!   up/down-link payload transfer per dispatch over the same `io_gbps`
//!   link — the communication term both schedulers' virtual clocks charge;
//! * [`comm`] — the communication plane's wire descriptors: what a
//!   dispatch ships ([`Payload`] — full snapshot, submodel window, or
//!   delta against the client's cached version) with exact, asymmetric
//!   down/up-link byte counts.
//!
//! Everything here operates on weight-free [`fp_nn::spec`] descriptions, so
//! full-scale VGG16/ResNet34 are costed without allocating their weights.

pub mod comm;
pub mod devices;
pub mod flops;
pub mod latency;
pub mod memory;

pub use comm::{Payload, PayloadKind, PayloadSpec, FULL_SHAPE};
pub use devices::{sample_fleet, Device, DeviceSample, SamplingMode, CALTECH_POOL, CIFAR_POOL};
pub use flops::{forward_macs, forward_macs_range, training_flops_per_iter, TrainingPassProfile};
pub use latency::{transfer_seconds, ClientLatency, ForwardLink, LatencyModel};
pub use memory::{
    model_mem_req, module_mem_req, param_transfer_bytes, AuxHeadSpec, MemoryBreakdown,
    BYTES_PER_PARAM_STATE,
};

/// SplitMix64: the standard 64-bit finalizer. This is the stateless
/// salted hash every per-client *plan* in the stack is assigned by —
/// cohort membership in `fp_fl::topology` and Byzantine-client flagging
/// in `fp_fl::byz` both hash `(seed ^ salt ^ client)` through it, so a
/// client's plan needs no membership table and is computable in
/// isolation.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps a salted hash to `[0, 1)` — the uniform variate behind
/// fraction-of-fleet plan assignment (53-bit mantissa precision).
pub fn salted_unit(hash: u64) -> f64 {
    (hash >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
}
