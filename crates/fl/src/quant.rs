//! The lossy up-link compression plane: stochastic quantization with
//! per-client error feedback.
//!
//! Down-links compress losslessly (the XOR-plane delta codec — the server
//! knows both endpoints of the diff). The up-link cannot: the client's
//! update exists only client-side, so compression is necessarily lossy.
//! This module is the opt-in plane that makes it cheap anyway:
//!
//! * **stochastic quantization** — each update goes through the seeded
//!   b-bit quantizer ([`fp_tensor::quant`]) and straight back: the
//!   simulated up-link never materialises wire bytes. What the server
//!   merges is `dequantize(quantize(v))`, which is what decoding the packed
//!   stream yields bit for bit (`fp_nn::qcodec`'s tests hold the two
//!   equal), because packing is a bijection of the codes.
//!   [`fp_nn::qcodec::QuantizedUpdate`] stays the layout of record — the
//!   byte format a real client would send — and its exact size, computed
//!   arithmetically by [`qcodec::wire_bytes`], overrides
//!   `Payload::up_bytes` *before* latency costing, so quantized uploads
//!   buy cheaper virtual time, not just smaller ledger numbers;
//! * **error feedback** — the quantization error of each upload is kept
//!   client-side and added to the next update before encoding, so the
//!   bias telescopes away instead of accumulating (the standard EF-SGD
//!   construction). Residual rows live in an LRU-bounded table exactly
//!   like [`CommPlane`](crate::comm::CommPlane) cache rows, so
//!   `FlEnv::lazy` 100k fleets stay O(active clients);
//! * **loss attribution** — when a dispatch is lost (sync dropout, async
//!   timeout, outage) the server-side model never consumed the update the
//!   residual describes, so the schedulers invalidate the row where they
//!   invalidate the comm cache, and the plane counts each cause;
//! * **checkpointing** — the residual table rides both schedulers'
//!   checkpoints under an omit-when-trivial `quant` key with field-named
//!   resume rejection, keeping quantized runs resumable bit-for-bit and
//!   dense checkpoints byte-identical to the pre-quantization format.
//!
//! # Determinism
//!
//! The quantizer draws are counter-based hashes of
//! `(env seed, round, client, element index)`, so they are independent of
//! evaluation order. Residual rows are stamped with the deterministic
//! value `(round << 32) | client` — never an access-order counter, which
//! would make LRU eviction depend on thread scheduling — and the table is
//! only advanced at the schedulers' serial merge points: within one merge
//! every client trains against the residual state *before* the merge, so
//! worker count cannot reorder the feedback chain.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Mutex;

use fp_hwsim::{LatencyModel, PayloadSpec};
use fp_nn::qcodec;
use fp_tensor::BackendHandle;
use serde::{Deserialize, Serialize};

use crate::engine::FlEnv;
use crate::sched::ScheduledTrainer;

/// Domain-separation salt for the quantizer's stochastic draws.
const SALT_QUANT: u64 = 0x4B17_C0DE;
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// The seed of client `k`'s round-`t` quantizer — same derivation as
/// [`FlEnv::client_rng`] so draws are decorrelated per (round, client)
/// and reproducible from the run seed alone.
pub fn quant_seed(env_seed: u64, t: usize, k: usize) -> u64 {
    env_seed ^ SALT_QUANT ^ ((t as u64) << 20) ^ (k as u64).wrapping_mul(PHI)
}

/// Why an in-flight update (and with it the client's error-feedback
/// residual) was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantLoss {
    /// Sync straggler dropout: the client missed the round deadline.
    Dropout,
    /// Async server timeout (or async dispatch dropout — the server
    /// cannot distinguish the two when it reclaims the slot).
    Timeout,
    /// Correlated outage window swallowed the dispatch.
    Outage,
}

/// Cause-attributed counts of error-feedback rows invalidated by lost
/// dispatches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantLosses {
    /// Rows dropped by sync straggler dropout.
    pub dropout: u64,
    /// Rows dropped by async timeouts.
    pub timed_out: u64,
    /// Rows dropped by outage windows.
    pub outage_lost: u64,
}

/// Quantization-plane policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantConfig {
    /// Code width in bits: `2..=8`, or `32` for the exact passthrough
    /// (useful as a bit-accuracy anchor — 32-bit codes reproduce the
    /// dense update values exactly).
    pub bits: u32,
    /// Elements per max-norm scale chunk.
    pub chunk: usize,
    /// Upper bound on resident error-feedback rows (`0` = unbounded).
    /// Rows are evicted least-recently-trained first, mirroring
    /// [`CommConfig::cache_rows`](crate::comm::CommConfig::cache_rows);
    /// an evicted client simply restarts with a zero residual.
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub ef_rows: usize,
}

impl QuantConfig {
    /// `bits`-wide codes with the default 256-element chunk and an
    /// unbounded residual table.
    pub fn new(bits: u32) -> Self {
        QuantConfig {
            bits,
            chunk: 256,
            ef_rows: 0,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on a code width outside `2..=8` ∪ `{32}` or a zero chunk.
    pub fn validate(&self) {
        assert!(
            (2..=8).contains(&self.bits) || self.bits == 32,
            "quant bits must be in 2..=8 or 32, got {}",
            self.bits
        );
        assert!(self.chunk >= 1, "quant chunk must be >= 1");
    }
}

/// One client's resident error-feedback state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantRow {
    /// The quantization error of the client's last consumed upload,
    /// added to its next update before encoding.
    pub residual: Vec<f32>,
    /// Deterministic LRU stamp: `(round << 32) | client`.
    pub stamp: u64,
}

/// The checkpointable state of the quantization plane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantState {
    /// Policy the run was started with (validated on resume).
    pub cfg: QuantConfig,
    /// Resident residual rows, ascending by client id.
    pub rows: Vec<(usize, QuantRow)>,
    /// Cause-attributed invalidation counters (absent from the JSON
    /// while nothing was ever invalidated).
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub lost: QuantLosses,
}

/// The live (interior-mutable) table behind a [`QuantTrainer`].
#[derive(Debug, Default)]
struct EfTable {
    /// client id → residual row. Sparse: rows exist only for clients
    /// whose upload the server has consumed.
    rows: HashMap<usize, QuantRow>,
    /// Residuals produced by `train` calls since the last merge,
    /// `(client, round, residual)`. Applied to `rows` — in sorted
    /// order, so thread scheduling cannot reorder the feedback chain —
    /// at the next serial merge point.
    pending: Vec<(usize, usize, Vec<f32>)>,
    /// Cause-attributed invalidation counters.
    lost: QuantLosses,
}

impl EfTable {
    /// Evicts smallest-stamp rows until the table fits `cap` (`0` =
    /// unbounded). Stamps are unique per (round, client), so victims
    /// are deterministic.
    fn evict_to(&mut self, cap: usize) {
        while cap > 0 && self.rows.len() > cap {
            let victim = *self
                .rows
                .iter()
                .min_by_key(|(_, r)| r.stamp)
                .map(|(k, _)| k)
                .expect("non-empty table");
            self.rows.remove(&victim);
        }
    }
}

// ----------------------------------------------------------------- wrapper

/// Wraps a flat-vector trainer with the lossy up-link plane.
///
/// The wrapper intercepts [`ScheduledTrainer::train`]: the inner update
/// plus the client's residual is stochastically quantized, the
/// *dequantized* vector is what flows into the schedulers' buffers (so
/// staleness discounts and robust rules act on exactly what the wire
/// carried), and the new residual is staged for the next serial merge
/// point. Costing changes only through
/// [`ScheduledTrainer::quant_up_bytes`], which the schedulers consult to
/// override `Payload::up_bytes` before latency costing.
///
/// Composes with the Byzantine plane as
/// `ByzTrainer<QuantTrainer<T>>`: the attacker corrupts the quantized
/// update (what a hostile client would actually put on the wire), and
/// the robust rule sees what the wire saw.
#[derive(Debug)]
pub struct QuantTrainer<T> {
    /// The dense trainer being wrapped.
    pub inner: T,
    /// Quantization policy.
    pub cfg: QuantConfig,
    /// Client-side residual state (interior mutability: `train` takes
    /// `&self`).
    table: Mutex<EfTable>,
}

impl<T: Clone> Clone for QuantTrainer<T> {
    fn clone(&self) -> Self {
        // Residuals are run state, not configuration: clones start cold.
        QuantTrainer {
            inner: self.inner.clone(),
            cfg: self.cfg,
            table: Mutex::new(EfTable::default()),
        }
    }
}

impl<T> QuantTrainer<T> {
    /// Wraps `inner` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid.
    pub fn new(inner: T, cfg: QuantConfig) -> Self {
        cfg.validate();
        QuantTrainer {
            inner,
            cfg,
            table: Mutex::new(EfTable::default()),
        }
    }

    /// How many residual rows are currently resident — O(clients that
    /// actually uploaded), and at most [`QuantConfig::ef_rows`] when
    /// bounded.
    pub fn resident_rows(&self) -> usize {
        self.table.lock().expect("quant table lock").rows.len()
    }

    /// Client `k`'s current residual, if resident.
    pub fn residual(&self, k: usize) -> Option<Vec<f32>> {
        self.table
            .lock()
            .expect("quant table lock")
            .rows
            .get(&k)
            .map(|r| r.residual.clone())
    }

    /// The cause-attributed invalidation counters so far.
    pub fn losses(&self) -> QuantLosses {
        self.table.lock().expect("quant table lock").lost
    }
}

impl<T> ScheduledTrainer for QuantTrainer<T>
where
    T: ScheduledTrainer<Update = Vec<f32>>,
{
    type Update = Vec<f32>;
    type ServerState = T::ServerState;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cost(&self, env: &FlEnv, t: usize, k: usize) -> LatencyModel {
        self.inner.cost(env, t, k)
    }

    fn payload_spec(&self, env: &FlEnv, t: usize, k: usize) -> PayloadSpec {
        self.inner.payload_spec(env, t, k)
    }

    fn payload_params(
        &self,
        env: &FlEnv,
        state: &Self::ServerState,
        t: usize,
        k: usize,
    ) -> Vec<f32> {
        self.inner.payload_params(env, state, t, k)
    }

    fn init(&self, env: &FlEnv) -> Self::ServerState {
        self.inner.init(env)
    }

    fn train(
        &self,
        env: &FlEnv,
        state: &Self::ServerState,
        t: usize,
        k: usize,
        lr: f32,
        backend: BackendHandle,
    ) -> (Vec<f32>, f32) {
        let (update, loss) = self.inner.train(env, state, t, k, lr, backend);
        // Add the client's residual (frozen since the last merge point,
        // so concurrent trains all read consistent state). A length
        // mismatch means the payload shape changed; the stale residual
        // is meaningless and is skipped (it will be overwritten below).
        let mut v = update;
        {
            let tab = self.table.lock().expect("quant table lock");
            if let Some(row) = tab.rows.get(&k) {
                if row.residual.len() == v.len() {
                    for (a, b) in v.iter_mut().zip(&row.residual) {
                        *a += *b;
                    }
                }
            }
        }
        // What the server would decode. At b = 32 the wire carries the raw
        // f32 bits, so that is `v` itself; below, it is the codes and scales
        // dequantized — the packed bytes in between are a bijection of the
        // codes and are never materialised here (`quant_up_bytes` charges
        // their exact size arithmetically).
        let mut d = Vec::new();
        if self.cfg.bits == 32 {
            d.clone_from(&v);
        } else {
            thread_local! {
                static CODES: RefCell<(Vec<i8>, Vec<f32>)> =
                    const { RefCell::new((Vec::new(), Vec::new())) };
            }
            CODES.with(|cell| {
                let (codes, scales) = &mut *cell.borrow_mut();
                let (bits, chunk) = (self.cfg.bits, self.cfg.chunk);
                let seed = quant_seed(env.cfg.seed, t, k);
                fp_tensor::quant::quantize_into(&v, bits, chunk, seed, codes, scales);
                fp_tensor::quant::dequantize_into(codes, scales, bits, chunk, &mut d);
            });
        }
        // A fresh row rather than `v` reused in place: keeping the buffer
        // allocated *before* the transient ones as the long-lived row
        // fragments the heap (+11 MB peak on fpbench's 1 600-row fleet).
        let residual: Vec<f32> = v.iter().zip(&d).map(|(a, b)| a - b).collect();
        self.table
            .lock()
            .expect("quant table lock")
            .pending
            .push((k, t, residual));
        (d, loss)
    }

    fn merge_weighted(
        &self,
        env: &FlEnv,
        state: &mut Self::ServerState,
        t: usize,
        updates: Vec<(usize, Vec<f32>)>,
        weights: &[f32],
    ) {
        // Serial point: commit the residuals staged by this flush's
        // train calls in (client, round) order — deterministic no matter
        // how the parallel fan-out interleaved them — then trim to the
        // LRU bound.
        {
            let mut tab = self.table.lock().expect("quant table lock");
            let mut pending = std::mem::take(&mut tab.pending);
            pending.sort_unstable_by_key(|p| (p.0, p.1));
            for (k, round, residual) in pending {
                let stamp = ((round as u64) << 32) | (k as u64 & 0xFFFF_FFFF);
                tab.rows.insert(k, QuantRow { residual, stamp });
            }
            tab.evict_to(self.cfg.ef_rows);
        }
        self.inner.merge_weighted(env, state, t, updates, weights);
    }

    fn byz_policy(&self) -> Option<crate::byz::ByzPolicy> {
        self.inner.byz_policy()
    }

    fn take_robust_stats(&self) -> crate::byz::RobustStats {
        self.inner.take_robust_stats()
    }

    fn quant_policy(&self) -> Option<QuantConfig> {
        Some(self.cfg)
    }

    fn quant_up_bytes(&self, spec: &PayloadSpec) -> Option<u64> {
        // The dense spec is 4 bytes per uploaded element.
        Some(qcodec::wire_bytes(
            spec.bytes / 4,
            self.cfg.bits,
            self.cfg.chunk,
        ))
    }

    fn quant_invalidate(&self, k: usize, cause: QuantLoss) {
        let mut tab = self.table.lock().expect("quant table lock");
        if tab.rows.remove(&k).is_some() {
            match cause {
                QuantLoss::Dropout => tab.lost.dropout += 1,
                QuantLoss::Timeout => tab.lost.timed_out += 1,
                QuantLoss::Outage => tab.lost.outage_lost += 1,
            }
        }
    }

    fn quant_state(&self) -> Option<QuantState> {
        let tab = self.table.lock().expect("quant table lock");
        let mut rows: Vec<(usize, QuantRow)> =
            tab.rows.iter().map(|(&k, r)| (k, r.clone())).collect();
        rows.sort_unstable_by_key(|&(k, _)| k);
        Some(QuantState {
            cfg: self.cfg,
            rows,
            lost: tab.lost,
        })
    }

    fn restore_quant(&self, state: &QuantState) {
        let mut tab = self.table.lock().expect("quant table lock");
        tab.rows = state.rows.iter().cloned().collect();
        tab.pending.clear();
        tab.lost = state.lost;
    }

    fn reset_quant(&self) {
        let mut tab = self.table.lock().expect("quant table lock");
        tab.rows.clear();
        tab.pending.clear();
        tab.lost = QuantLosses::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_serde_omits_default_ef_rows() {
        let cfg = QuantConfig::new(4);
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(!json.contains("ef_rows"));
        let back = serde_json::from_str::<QuantConfig>(&json).unwrap();
        assert_eq!(back, cfg);
        let bounded = QuantConfig { ef_rows: 64, ..cfg };
        let json = serde_json::to_string(&bounded).unwrap();
        assert!(json.contains("ef_rows"));
        let back = serde_json::from_str::<QuantConfig>(&json).unwrap();
        assert_eq!(back, bounded);
    }

    #[test]
    fn state_serde_roundtrips_and_omits_trivial_losses() {
        let st = QuantState {
            cfg: QuantConfig::new(4),
            rows: vec![(
                3,
                QuantRow {
                    residual: vec![0.25, -0.5],
                    stamp: (7u64 << 32) | 3,
                },
            )],
            lost: QuantLosses::default(),
        };
        let json = serde_json::to_string(&st).unwrap();
        assert!(!json.contains("lost"));
        let back = serde_json::from_str::<QuantState>(&json).unwrap();
        assert_eq!(back, st);
        let lossy = QuantState {
            lost: QuantLosses {
                dropout: 1,
                timed_out: 2,
                outage_lost: 0,
            },
            ..st
        };
        let json = serde_json::to_string(&lossy).unwrap();
        assert!(json.contains("timed_out"));
        let back = serde_json::from_str::<QuantState>(&json).unwrap();
        assert_eq!(back, lossy);
    }

    #[test]
    fn quant_seed_separates_rounds_and_clients() {
        let a = quant_seed(42, 0, 0);
        assert_ne!(a, quant_seed(42, 1, 0));
        assert_ne!(a, quant_seed(42, 0, 1));
        assert_ne!(a, quant_seed(43, 0, 0));
        assert_eq!(a, quant_seed(42, 0, 0));
    }

    #[test]
    #[should_panic(expected = "quant bits")]
    fn config_rejects_bad_bits() {
        QuantConfig::new(9).validate();
    }
}
