//! The round scheduler: a **barrier policy** over the shared run core.
//!
//! Everything a dispatch goes through — trace gate, payload planning,
//! wire sizing, `fp-hwsim` costing, throttling, cache bookkeeping, the
//! training fan-out, evaluation, the plane keys of a checkpoint and the
//! resume checks — is spelled once, in the crate-private run core
//! (`run.rs` has the stage diagram), and shared with
//! [`crate::async_sched`]. What this module owns is *when the barrier
//! falls*, in **virtual time**:
//!
//! * selection: `ceil(clients_per_round × over_select)` clients per
//!   round, each costed on its device profile with per-round
//!   availability degradation (§B.1) — download, local training
//!   (compute and swap), upload — so deadline estimates see
//!   communication-bound clients too; per-round dropout draws;
//! * a per-round close ([`simulate_round`]): the surviving clients'
//!   finishes, walked in time order, race against an optional straggler
//!   deadline, dropped-out clients never report, and the round closes at
//!   the target-th completion or the deadline (times are round-relative;
//!   the clock adds them up);
//! * at the close the server trains and FedAvg-merges the clients that
//!   actually completed, pays the edge→server hop on a hierarchical
//!   topology, and writes one [`SchedRound`] (serializable to JSON).
//!
//! Device heterogeneity dominates real federations (and the paper's
//! systems story, §3/§7.2), which is why production servers close rounds
//! on deadlines with over-selection. With the default [`SchedConfig`]
//! (wait-all barrier, no dropout, no over-selection) [`EventScheduler`]
//! reproduces the historical lockstep loops bit-for-bit, which is how
//! the `fp-fl` baselines implement [`FlAlgorithm`](crate::FlAlgorithm).
//!
//! # Determinism
//!
//! Everything is a pure function of `(FlConfig::seed, round)`: client
//! sampling, availability draws, dropout draws, and the per-client
//! training streams are all domain-separated counter-derived RNGs, and
//! the kernel backend is bit-identical for every thread count. The same
//! seed and config therefore produce an identical ledger and an
//! identical final model at **any** worker-thread budget — the e2e suite
//! pins this with [`model_hash`] across 1/2/4 workers.
//!
//! # Checkpointing
//!
//! [`SchedCheckpoint`] captures the full cross-round state (server state
//! via `fp-nn` checkpoints, the master seed of the RNG streams, the next
//! round index, the virtual clock, the ledger so far, and one optional
//! key per enabled plane); because all per-round RNG streams are
//! re-derived from `(seed, round)`, resuming at round `k` reproduces
//! rounds `k+1..n` bit-identically.

use crate::comm::{CommConfig, CommState};
use crate::engine::FlEnv;
use crate::metrics::{FlOutcome, RoundRecord};
use crate::quant::QuantLoss;
use crate::run::{emit, Core, Outcome, Planned, Saved, Sink, Stack};
use crate::topology::TopologyConfig;
use crate::trace::TraceLoss;
use fp_hwsim::{ClientLatency, DeviceSample, LatencyModel, PayloadSpec};
use fp_nn::CascadeModel;
use fp_tensor::BackendHandle;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Domain-separation salt for availability degradation. Every consumer
/// of the scheduler's RNG discipline (FedProphet's loop and the async
/// aggregator included) draws client `k`'s round-`t` degradation from the
/// same per-`(round, client)` stream, [`FlEnv::client_rng`]`(t, k,
/// SALT_AVAIL)` — which is what makes sync rounds and async dispatches
/// against the same model version bit-identical.
pub const SALT_AVAIL: u64 = 0xA7A11;
/// Domain-separation salt for per-round dropout draws.
const SALT_DROP: u64 = 0xD80_90D7;

// ------------------------------------------------------------------ config

/// When the server stops waiting for stragglers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DeadlinePolicy {
    /// Barrier semantics: the round closes when the last surviving client
    /// reports (the historical lockstep behavior).
    WaitAll,
    /// The round closes `seconds` of virtual time after it starts.
    FixedSeconds(f64),
    /// The round closes at `factor ×` the median predicted duration of
    /// the surviving clients — an adaptive deadline that scales with the
    /// round's workload.
    MedianMultiple(f64),
}

/// Round-scheduling policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedConfig {
    /// Over-selection factor (≥ 1): the server samples
    /// `ceil(clients_per_round × over_select)` clients and closes the
    /// round once `clients_per_round` have completed (Google-style
    /// over-provisioning against stragglers).
    pub over_select: f64,
    /// Per-round probability that a selected client drops out and never
    /// reports (network loss, app eviction).
    pub dropout_p: f64,
    /// Straggler deadline.
    pub deadline: DeadlinePolicy,
    /// The deadline never closes a round with fewer completions than
    /// this; the server instead waits for the next finish event (progress
    /// guarantee; default 1).
    pub min_completions: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            over_select: 1.0,
            dropout_p: 0.0,
            deadline: DeadlinePolicy::WaitAll,
            min_completions: 1,
        }
    }
}

impl SchedConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on degenerate values.
    pub fn validate(&self) {
        assert!(self.over_select >= 1.0, "over_select must be >= 1");
        assert!(
            (0.0..1.0).contains(&self.dropout_p),
            "dropout_p must be in [0, 1)"
        );
        assert!(self.min_completions >= 1, "min_completions must be >= 1");
        match self.deadline {
            DeadlinePolicy::WaitAll => {}
            DeadlinePolicy::FixedSeconds(s) => assert!(s > 0.0, "deadline must be positive"),
            DeadlinePolicy::MedianMultiple(x) => assert!(x > 0.0, "deadline factor must be > 0"),
        }
    }
}

// -------------------------------------------------------------- round close

/// Number of clients to select for a round with `target` desired
/// completions under an over-selection factor, capped by the fleet size.
pub fn over_select_count(target: usize, over_select: f64, n_clients: usize) -> usize {
    ((target as f64 * over_select).ceil() as usize).clamp(target, n_clients)
}

/// Per-selected-client dropout draws for round `t`, deterministic in
/// `(env.cfg.seed, t)` and shared by every consumer of the scheduler's
/// RNG stream discipline (the generic driver and FedProphet's loop draw
/// from the same domain-separated stream).
pub fn draw_dropouts(env: &FlEnv, t: usize, n: usize, dropout_p: f64) -> Vec<bool> {
    let mut rng = env.round_rng(t, SALT_DROP);
    (0..n)
        .map(|_| dropout_p > 0.0 && rng.gen::<f64>() < dropout_p)
        .collect()
}

/// The outcome of one simulated round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSim {
    /// Clients that completed before the round closed, ascending by id
    /// (the aggregation set `S_t`).
    pub completed: Vec<usize>,
    /// Surviving clients cut by the deadline / early close, ascending.
    pub stragglers: Vec<usize>,
    /// Clients that dropped out and never reported, ascending.
    pub dropped_out: Vec<usize>,
    /// Virtual duration of the round (0 when nobody survived).
    pub round_time_s: f64,
}

/// Plays one round forward: the round is a prefix of the survivors'
/// finish order.
///
/// `ids`, `latency` and `dropped` are parallel arrays over the selected
/// clients. The survivors finish in `(finish-time bits, id)` order (finite
/// non-negative times order correctly by their IEEE bits; ties break by
/// id), and the walk over that order closes the round at the earliest of:
/// the `target`-th completion, or the deadline (but never with fewer than
/// `cfg.min_completions` completions — the server then waits for the next
/// finish). The deadline is checked once, before the first finish whose
/// bits exceed its own, so a finish exactly at the deadline still counts.
///
/// # Panics
///
/// Panics if the parallel arrays disagree or `target` is 0.
pub fn simulate_round(
    ids: &[usize],
    latency: &[ClientLatency],
    dropped: &[bool],
    target: usize,
    cfg: &SchedConfig,
) -> RoundSim {
    assert_eq!(ids.len(), latency.len(), "latency array mismatch");
    assert_eq!(ids.len(), dropped.len(), "dropout array mismatch");
    assert!(target >= 1, "target completions must be >= 1");
    let survivors: Vec<usize> = (0..ids.len()).filter(|&i| !dropped[i]).collect();
    let mut dropped_out: Vec<usize> = (0..ids.len())
        .filter(|&i| dropped[i])
        .map(|i| ids[i])
        .collect();
    dropped_out.sort_unstable();
    if survivors.is_empty() {
        return RoundSim {
            completed: Vec::new(),
            stragglers: Vec::new(),
            dropped_out,
            round_time_s: 0.0,
        };
    }
    // The progress floor also binds the target close: a round never
    // closes below `min_completions` while survivors could still report.
    let target = target.max(cfg.min_completions).min(survivors.len());

    let mut deadline = match cfg.deadline {
        DeadlinePolicy::WaitAll => None,
        DeadlinePolicy::FixedSeconds(s) => Some(s),
        DeadlinePolicy::MedianMultiple(x) => {
            let mut totals: Vec<f64> = survivors.iter().map(|&i| latency[i].total()).collect();
            totals.sort_by(f64::total_cmp);
            let mid = totals.len() / 2;
            let median = if totals.len() % 2 == 1 {
                totals[mid]
            } else {
                0.5 * (totals[mid - 1] + totals[mid])
            };
            Some(x * median)
        }
    };
    let mut finishes: Vec<(u64, usize)> = survivors
        .iter()
        .map(|&i| (latency[i].total().to_bits(), ids[i]))
        .collect();
    finishes.sort_unstable();

    let mut completed: Vec<usize> = Vec::with_capacity(target);
    let mut past_deadline = false;
    let mut close_time = 0.0f64;
    for &(bits, client) in &finishes {
        if let Some(d) = deadline.filter(|d| bits > d.to_bits()) {
            deadline = None;
            if completed.len() >= cfg.min_completions {
                close_time = d;
                break;
            }
            // Progress guarantee: wait for the next finish instead of
            // closing an empty round.
            past_deadline = true;
        }
        completed.push(client);
        close_time = f64::from_bits(bits);
        if completed.len() >= target || (past_deadline && completed.len() >= cfg.min_completions) {
            break;
        }
    }
    completed.sort_unstable();
    let stragglers: Vec<usize> = survivors
        .iter()
        .map(|&i| ids[i])
        .filter(|k| completed.binary_search(k).is_err())
        .collect();
    RoundSim {
        completed,
        stragglers,
        dropped_out,
        round_time_s: close_time,
    }
}

// ------------------------------------------------------------------ ledger

/// One scheduled round's ledger entry.
///
/// The payload fields (`down_bytes`, `up_bytes`, `delta_dispatches`) were
/// added with the communication plane; they serialize only when non-zero
/// so pre-refactor ledgers (embedded in committed v1 checkpoints)
/// round-trip byte-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedRound {
    /// Round index.
    pub round: usize,
    /// Clients selected (after over-selection).
    pub selected: usize,
    /// Selected clients that dropped out.
    pub dropped_out: usize,
    /// Surviving clients cut by the deadline / early close.
    pub stragglers: usize,
    /// Clients whose updates were aggregated.
    pub completed: usize,
    /// Sum of FedAvg weights over the completed clients.
    pub participation_weight: f32,
    /// Mean local training loss over completed clients (0 when none).
    pub train_loss: f32,
    /// Validation clean accuracy, when measured this round.
    pub val_clean: Option<f32>,
    /// Validation adversarial accuracy, when measured this round.
    pub val_adv: Option<f32>,
    /// Virtual duration of this round.
    pub round_time_s: f64,
    /// Virtual clock at the end of this round.
    pub clock_s: f64,
    /// Down-link payload bytes broadcast to every dispatched client this
    /// round (delta-compressed where the cache allowed it).
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub down_bytes: u64,
    /// Up-link update bytes received from the completed clients.
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub up_bytes: u64,
    /// Dispatches whose download was delta-encoded.
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub delta_dispatches: usize,
    /// Edge aggregators that forwarded a cohort bundle this round (0 on
    /// the flat topology — and then absent from the JSON).
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub edges_active: usize,
    /// Clients whose updates the robust aggregation rule filtered out of
    /// this round's merge, with reasons (empty — and absent from the
    /// JSON — under plain FedAvg).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub filtered: Vec<crate::byz::FilteredClient>,
    /// Updates whose norm the robust rule clipped before merging (0 —
    /// and absent from the JSON — under plain FedAvg).
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub clip_applied: usize,
    /// Selected clients the trace plane's diurnal curve made unreachable
    /// (0 — and absent from the JSON — with no trace plan).
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub unavailable: usize,
    /// Selected clients lost to a dark outage window (0 — and absent
    /// from the JSON — with no trace plan).
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub outage_lost: usize,
    /// Surviving dispatches whose latency the trace plane scaled
    /// (thermal throttle or timing adversary; 0 — and absent from the
    /// JSON — with no trace plan).
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub throttled: usize,
}

impl From<&SchedRound> for RoundRecord {
    fn from(r: &SchedRound) -> Self {
        RoundRecord {
            round: r.round,
            train_loss: r.train_loss,
            val_clean: r.val_clean,
            val_adv: r.val_adv,
        }
    }
}

/// FNV-1a over the little-endian bit patterns of every parameter and BN
/// statistic — the fingerprint the determinism guarantee is tested
/// against (same seed + config ⇒ same hash at any thread count).
pub fn model_hash(model: &CascadeModel) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: f32| {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for v in model.flat_params() {
        eat(v);
    }
    for (mean, var) in model.bn_stats() {
        for &v in mean.data() {
            eat(v);
        }
        for &v in var.data() {
            eat(v);
        }
    }
    h
}

// ----------------------------------------------------------------- trainer

/// An algorithm the event scheduler can drive: it describes each client's
/// round workload (for the latency draw), trains one client, and merges
/// completed updates into the **server state** — an arbitrary
/// serializable type ([`ScheduledTrainer::ServerState`]) that holds the
/// deployable global model. This is the one trainer contract: every
/// algorithm implements it directly. Single-model algorithms (jFAT, the
/// partial-training family, FedRBN, the synthetic fleet workload) use
/// the model itself, a [`CascadeModel`] whose JSON is its `fp_nn`
/// `Checkpoint`; algorithms with richer server state (the distillation
/// baselines' model zoo) bring their own type. Any `Clone` implementor is
/// also an [`FlAlgorithm`](crate::FlAlgorithm) that runs on the default
/// wait-all [`EventScheduler`].
///
/// Implementations must be deterministic functions of
/// `(env.cfg.seed, round, client)` — the scheduler owns client sampling,
/// availability, dropout, and the virtual clock.
pub trait ScheduledTrainer: Sync {
    /// One client's round result, merged by [`ScheduledTrainer::merge`].
    type Update: Send;

    /// Everything the server mutates across rounds. Serialization is how
    /// checkpoints capture it (the vendored serde has no separate
    /// `DeserializeOwned`; its `Deserialize` is already owning), `Clone`
    /// is how the async scheduler snapshots the versions still referenced
    /// by in-flight dispatches, `Sync` lets client training borrow it
    /// across worker threads, and `AsRef` / `AsMut` expose the deployable
    /// global model inside it.
    type ServerState: Serialize
        + Deserialize
        + Clone
        + Sync
        + AsRef<CascadeModel>
        + AsMut<CascadeModel>;

    /// Human-readable name, as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// The cost-model description of client `k`'s round-`t` workload
    /// (memory requirement, forward MACs, pass profile). The scheduler
    /// evaluates it against the client's sampled device availability to
    /// draw the local-training duration.
    fn cost(&self, env: &FlEnv, t: usize, k: usize) -> LatencyModel;

    /// The naive down-link payload of client `k`'s round-`t` dispatch:
    /// exact serialized bytes of the (sub)model it must materialize and a
    /// shape fingerprint (deltas are only valid against a cache entry of
    /// the same shape). Default: the full reference model — override for
    /// submodel windows, width slices, and zoo members.
    fn payload_spec(&self, env: &FlEnv, t: usize, k: usize) -> PayloadSpec {
        let _ = (t, k);
        PayloadSpec::full(env.model_param_bytes())
    }

    /// Materializes the parameters of client `k`'s round-`t` payload from
    /// an arbitrary server state — the vector the communication plane
    /// diffs between the client's cached version and the current one to
    /// size a delta download exactly. Must be a pure function of
    /// `(state, t, k)` whose length is fixed by the payload's shape
    /// fingerprint. Default: the global model's flat parameters.
    fn payload_params(
        &self,
        env: &FlEnv,
        state: &Self::ServerState,
        t: usize,
        k: usize,
    ) -> Vec<f32> {
        let _ = (env, t, k);
        self.global_model(state).flat_params()
    }

    /// The freshly initialized server state.
    fn init(&self, env: &FlEnv) -> Self::ServerState;

    /// The deployable global model inside the state — what validation
    /// metrics and [`SchedOutcome::model`] report.
    fn global_model<'a>(&self, state: &'a Self::ServerState) -> &'a CascadeModel {
        state.as_ref()
    }

    /// Mutable access to the deployable global model (forward passes
    /// update BN activations caches, so evaluation needs `&mut`).
    fn global_model_mut<'a>(&self, state: &'a mut Self::ServerState) -> &'a mut CascadeModel {
        state.as_mut()
    }

    /// Trains client `k` for round `t` against the current server state
    /// and returns its update plus local training loss.
    fn train(
        &self,
        env: &FlEnv,
        state: &Self::ServerState,
        t: usize,
        k: usize,
        lr: f32,
        backend: BackendHandle,
    ) -> (Self::Update, f32);

    /// Merges the completed updates into the server state with explicit
    /// aggregation weights (`weights[i]` belongs to `updates[i]`; the
    /// async scheduler passes FedAvg weights discounted by staleness).
    /// This is the only hook that mutates state, so a checkpoint taken
    /// between rounds captures everything. Never called with an empty
    /// vector.
    fn merge_weighted(
        &self,
        env: &FlEnv,
        state: &mut Self::ServerState,
        t: usize,
        updates: Vec<(usize, Self::Update)>,
        weights: &[f32],
    );

    /// Merges the completed updates (ascending client id) with plain
    /// FedAvg weights. Never called with an empty vector.
    fn merge(
        &self,
        env: &FlEnv,
        state: &mut Self::ServerState,
        t: usize,
        updates: Vec<(usize, Self::Update)>,
    ) {
        let weights: Vec<f32> = updates.iter().map(|(k, _)| env.client_weight(*k)).collect();
        self.merge_weighted(env, state, t, updates, &weights);
    }

    /// The Byzantine policy this trainer runs under, if any — carried by
    /// checkpoints (optional `byz` key, absent when `None`) and validated
    /// on resume. Honest trainers (the default) report `None`, which is
    /// what keeps their checkpoints byte-identical to the pre-Byzantine
    /// format.
    fn byz_policy(&self) -> Option<crate::byz::ByzPolicy> {
        None
    }

    /// Drains the evidence trail of the most recent
    /// [`ScheduledTrainer::merge_weighted`] — which clients the robust
    /// rule filtered and how many updates it clipped. The schedulers call
    /// this once right after each merge and write the result into the
    /// ledger record. Honest trainers (the default) have nothing to
    /// report.
    fn take_robust_stats(&self) -> crate::byz::RobustStats {
        crate::byz::RobustStats::default()
    }

    /// The up-link quantization policy this trainer runs under, if any —
    /// carried by checkpoints (optional `quant` key, absent when `None`)
    /// and validated on resume. Dense trainers (the default) report
    /// `None`, which keeps their checkpoints byte-identical to the
    /// pre-quantization format.
    fn quant_policy(&self) -> Option<crate::quant::QuantConfig> {
        None
    }

    /// Exact up-link wire bytes of a quantized upload whose dense payload
    /// is `spec` — `None` means dense f32 (the historical cost). The
    /// schedulers override `Payload::up_bytes` with this *before* latency
    /// costing, so compression buys cheaper virtual time, not just
    /// smaller ledger numbers.
    fn quant_up_bytes(&self, spec: &PayloadSpec) -> Option<u64> {
        let _ = spec;
        None
    }

    /// Tells the quantization plane that client `k`'s dispatch was lost
    /// before the server consumed its update, attributing the cause. The
    /// schedulers call this exactly where they invalidate the comm-plane
    /// cache: the client's error-feedback residual describes an upload
    /// the model never absorbed, so it must be dropped with it.
    fn quant_invalidate(&self, k: usize, cause: crate::quant::QuantLoss) {
        let _ = (k, cause);
    }

    /// Serializable snapshot of the quantization plane's client-side
    /// residual table (`None` when the plane is disabled — checkpoints
    /// then omit the `quant` key entirely).
    fn quant_state(&self) -> Option<crate::quant::QuantState> {
        None
    }

    /// Restores the quantization plane from checkpoint state.
    fn restore_quant(&self, state: &crate::quant::QuantState) {
        let _ = state;
    }

    /// Resets the quantization plane's run state. The schedulers call
    /// this when building a fresh run (and before restoring on resume),
    /// so back-to-back runs on one scheduler instance stay independent.
    fn reset_quant(&self) {}
}

// --------------------------------------------------------------- scheduler

/// The event-driven federated round scheduler.
#[derive(Debug, Clone)]
pub struct EventScheduler<T> {
    /// The algorithm being driven.
    pub trainer: T,
    /// Scheduling policy.
    pub sched: SchedConfig,
    /// Communication-plane policy (delta downloads / client caching).
    /// Disabled by default — dispatch costs are then bit-identical to the
    /// pre-communication-plane scheduler.
    pub comm: CommConfig,
    /// Aggregation topology. [`TopologyConfig::single`] (the default) is
    /// the flat server — bit-identical to the pre-topology scheduler; a
    /// hierarchical config adds an edge-forwarding hop at round close.
    pub topo: TopologyConfig,
    /// Availability-trace plan (diurnal curves, thermal throttling,
    /// correlated outages). `None` (the default) keeps participation the
    /// flat per-round draw — bit-identical to the pre-trace scheduler.
    pub trace: Option<crate::trace::TracePlan>,
}

/// The result of a scheduled run: final model, final server state, and
/// the round ledger.
pub type SchedOutcome<S = CascadeModel> = Outcome<S, SchedRound>;

/// A serializable snapshot of a scheduled run, taken between rounds.
///
/// Besides the server state and clock it records everything the
/// bit-identity guarantee depends on — the master seed, the scheduling
/// policy, and the environment shape — all validated on
/// [`EventScheduler::resume`] so a checkpoint can never silently continue
/// under different rules. Because [`ScheduledTrainer::merge_weighted`] is
/// the only hook that mutates server state, a between-round snapshot of
/// that state captures the whole run: algorithms like the distillation
/// baselines (model zoo + temperature schedule) resume exactly, not just
/// their student model.
///
/// The state serializes under the historical `"model"` key: for a
/// single-model algorithm's [`CascadeModel`] the JSON is its `fp_nn`
/// `Checkpoint`, bit-identical to the pre-generalization format, so old
/// checkpoints keep loading.
#[derive(Serialize, Deserialize)]
pub struct SchedCheckpoint<S = CascadeModel> {
    /// The first round the resumed run will execute.
    pub next_round: usize,
    /// Virtual clock at capture time.
    pub clock_s: f64,
    /// Master seed of every RNG stream (validated against the resuming
    /// environment — the streams are counter-derived from `(seed, round)`
    /// so no mutable generator state needs to be stored).
    pub seed: u64,
    /// Scheduling policy the run was started with.
    pub sched: SchedConfig,
    /// Name of the algorithm that produced the checkpoint.
    pub algorithm: String,
    /// `n_clients` of the originating environment.
    pub n_clients: usize,
    /// `clients_per_round` of the originating environment.
    pub clients_per_round: usize,
    /// Total rounds of the originating run (eval cadence depends on it).
    pub rounds: usize,
    /// Server-state snapshot (historically a bare model checkpoint, hence
    /// the serialized field name `model`).
    #[serde(rename = "model")]
    pub state: S,
    /// Ledger of the rounds already run.
    pub ledger: Vec<SchedRound>,
    /// Communication-plane state (cache table + retained snapshots);
    /// `None` when caching is disabled, and then absent from the JSON —
    /// pre-refactor checkpoints round-trip byte-identically.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub comm: Option<CommState<S>>,
    /// Aggregation topology; `None` on the flat single-server topology
    /// (and then absent from the JSON, keeping pre-topology checkpoints
    /// byte-identical).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub topo: Option<TopologyConfig>,
    /// Byzantine policy (robust rule + attack plan); `None` for honest
    /// trainers and trivial policies (and then absent from the JSON,
    /// keeping pre-Byzantine checkpoints byte-identical).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub byz: Option<crate::byz::ByzPolicy>,
    /// Availability-trace plan + thermal state; `None` with no trace
    /// plan (and then absent from the JSON, keeping pre-trace
    /// checkpoints byte-identical).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub trace: Option<crate::trace::TraceCheckpoint>,
    /// Quantization-plane policy + error-feedback residual table; `None`
    /// for dense trainers (and then absent from the JSON, keeping
    /// pre-quantization checkpoints byte-identical).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub quant: Option<crate::quant::QuantState>,
}

/// Mutable cross-round state of a scheduled run.
struct DriveState<S> {
    core: Core<S>,
    clock_s: f64,
    ledger: Vec<SchedRound>,
}

impl<T: ScheduledTrainer> EventScheduler<T> {
    /// Creates a scheduler with the communication plane disabled (every
    /// dispatch ships the whole payload — the historical behavior).
    ///
    /// # Panics
    ///
    /// Panics if `sched` is invalid.
    pub fn new(trainer: T, sched: SchedConfig) -> Self {
        EventScheduler::with_comm(trainer, sched, CommConfig::default())
    }

    /// Creates a scheduler with an explicit communication-plane policy
    /// (delta downloads against per-client cached versions).
    ///
    /// # Panics
    ///
    /// Panics if `sched` or `comm` is invalid.
    pub fn with_comm(trainer: T, sched: SchedConfig, comm: CommConfig) -> Self {
        EventScheduler::with_topology(trainer, sched, comm, TopologyConfig::single())
    }

    /// Creates a scheduler over an explicit aggregation topology. With
    /// [`TopologyConfig::single`] this is exactly
    /// [`EventScheduler::with_comm`]; a hierarchical config groups the
    /// round's completed clients by cohort and pays the edge→server
    /// forwarding hop at round close.
    ///
    /// # Panics
    ///
    /// Panics if `sched`, `comm`, or `topo` is invalid.
    pub fn with_topology(
        trainer: T,
        sched: SchedConfig,
        comm: CommConfig,
        topo: TopologyConfig,
    ) -> Self {
        sched.validate();
        comm.validate();
        topo.validate();
        EventScheduler {
            trainer,
            sched,
            comm,
            topo,
            trace: None,
        }
    }

    /// Creates a scheduler with an availability-trace plan on top of the
    /// full stack: selection is gated by the plan's diurnal curves and
    /// outage windows, and dispatch costing picks up thermal throttling
    /// and the timing adversary. With `trace = None` this is exactly
    /// [`EventScheduler::with_topology`].
    ///
    /// # Panics
    ///
    /// Panics if `sched`, `comm`, `topo`, or `trace` is invalid.
    pub fn with_trace(
        trainer: T,
        sched: SchedConfig,
        comm: CommConfig,
        topo: TopologyConfig,
        trace: Option<crate::trace::TracePlan>,
    ) -> Self {
        if let Some(plan) = &trace {
            plan.validate();
        }
        let mut s = EventScheduler::with_topology(trainer, sched, comm, topo);
        s.trace = trace;
        s
    }

    fn stack(&self) -> Stack<'_, T> {
        Stack {
            trainer: &self.trainer,
            comm: self.comm,
            topo: &self.topo,
            trace: self.trace.as_ref(),
        }
    }

    fn fresh_state(&self, env: &FlEnv, capacity: usize) -> DriveState<T::ServerState> {
        DriveState {
            core: self.stack().fresh(env),
            clock_s: 0.0,
            ledger: Vec::with_capacity(capacity),
        }
    }

    /// Drives rounds `from..to` and wraps up the outcome.
    fn finish(
        &self,
        env: &FlEnv,
        mut st: DriveState<T::ServerState>,
        from: usize,
        sink: Sink<'_, SchedRound>,
    ) -> SchedOutcome<T::ServerState> {
        self.drive(env, &mut st, from, env.cfg.rounds, sink);
        self.stack().finish(st.core, st.ledger, st.clock_s)
    }

    /// Runs all `env.cfg.rounds` rounds.
    pub fn run(&self, env: &FlEnv) -> SchedOutcome<T::ServerState> {
        self.finish(env, self.fresh_state(env, env.cfg.rounds), 0, None)
    }

    /// Like [`EventScheduler::run`], but streams every round record to
    /// `sink` the moment the round closes instead of accumulating the
    /// ledger in memory. The returned outcome carries an **empty**
    /// ledger — on fleet-scale runs the ledger is the last O(rounds)
    /// allocation, and streaming it out keeps resident memory bounded
    /// by the round's active dispatches.
    pub fn run_streamed(
        &self,
        env: &FlEnv,
        sink: &mut dyn FnMut(&SchedRound),
    ) -> SchedOutcome<T::ServerState> {
        self.finish(env, self.fresh_state(env, 0), 0, Some(sink))
    }

    /// Runs rounds `0..stop_after` and returns a resumable checkpoint.
    pub fn run_until(&self, env: &FlEnv, stop_after: usize) -> SchedCheckpoint<T::ServerState> {
        let stop = stop_after.min(env.cfg.rounds);
        let mut st = self.fresh_state(env, stop);
        self.drive(env, &mut st, 0, stop, None);
        let (comm, topo, byz, trace, quant) = self.stack().keys(&st.core);
        SchedCheckpoint {
            next_round: stop,
            clock_s: st.clock_s,
            seed: env.cfg.seed,
            sched: self.sched,
            algorithm: self.trainer.name().to_string(),
            n_clients: env.cfg.n_clients,
            clients_per_round: env.cfg.clients_per_round,
            rounds: env.cfg.rounds,
            state: st.core.state,
            ledger: st.ledger,
            comm,
            topo,
            byz,
            trace,
            quant,
        }
    }

    /// Resumes from a checkpoint and finishes the remaining rounds.
    /// Rounds `k..n` are bit-identical to an uninterrupted run.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint disagrees with the resuming environment
    /// or scheduler — each mismatch message names the offending
    /// `SchedCheckpoint` field (`sched`, `clients_per_round`, `seed`,
    /// `algorithm`, `n_clients`, `rounds`, or a plane key) so a failed
    /// resume says exactly which rule changed instead of silently
    /// diverging. Also panics, by field, on a `next_round` past `rounds`
    /// or not following the ledger, and on a `clock_s` that is not the
    /// last record's finite, non-negative clock (0 for an empty ledger).
    pub fn resume(
        &self,
        env: &FlEnv,
        ckpt: &SchedCheckpoint<T::ServerState>,
    ) -> SchedOutcome<T::ServerState> {
        assert_eq!(
            ckpt.sched, self.sched,
            "SchedCheckpoint field `sched`: checkpoint was taken under a different scheduling policy"
        );
        assert_eq!(
            ckpt.clients_per_round, env.cfg.clients_per_round,
            "SchedCheckpoint field `clients_per_round`: checkpoint was taken under a different cohort size"
        );
        let saved = Saved {
            ty: "SchedCheckpoint",
            seed: ckpt.seed,
            algorithm: &ckpt.algorithm,
            n_clients: ckpt.n_clients,
            rounds: ckpt.rounds,
            next: ("next_round", ckpt.next_round),
            ran: ckpt.ledger.len(),
            clock: ("clock_s", ckpt.clock_s),
            last_clock_s: ckpt.ledger.last().map_or(0.0, |r| r.clock_s),
            state: &ckpt.state,
            comm: ckpt.comm.as_ref(),
            topo: ckpt.topo,
            byz: ckpt.byz,
            trace: ckpt.trace.as_ref(),
            quant: ckpt.quant.as_ref(),
        };
        let st = DriveState {
            core: self.stack().restore(env, saved),
            clock_s: ckpt.clock_s,
            ledger: ckpt.ledger.clone(),
        };
        self.finish(env, st, ckpt.next_round, None)
    }

    /// The round loop: plan and simulate the round, then train, merge
    /// and evaluate at its close.
    fn drive(
        &self,
        env: &FlEnv,
        st: &mut DriveState<T::ServerState>,
        from: usize,
        to: usize,
        mut sink: Sink<'_, SchedRound>,
    ) {
        let stack = self.stack();
        for t in from..to {
            let (sim, tally) = self.plan_round(env, t, st);
            let jobs: Vec<(usize, usize)> = sim.completed.iter().map(|&k| (t, k)).collect();
            let results = stack.train(env, &jobs, |_| &st.core.state);
            let train_loss = if results.is_empty() {
                0.0
            } else {
                results.iter().map(|(_, l)| *l).sum::<f32>() / results.len() as f32
            };
            let participation_weight = sim
                .completed
                .iter()
                .map(|&k| env.client_weight(k))
                .sum::<f32>();
            let robust = if results.is_empty() {
                crate::byz::RobustStats::default()
            } else {
                let updates: Vec<(usize, T::Update)> = sim
                    .completed
                    .iter()
                    .copied()
                    .zip(results.into_iter().map(|(u, _)| u))
                    .collect();
                self.trainer.merge(env, &mut st.core.state, t, updates);
                self.trainer.take_robust_stats()
            };
            let (val_clean, val_adv) = stack.eval(env, &mut st.core, t);
            // On a hierarchical topology the round's barrier sits at the
            // *server*: every edge forwards its cohort's partial sum at
            // round close, and the round ends when the slowest bundle
            // lands (the hops run concurrently, so the max binds).
            let round_time_s = sim.round_time_s + tally.edge_forward_s;
            st.clock_s += round_time_s;
            stack.prune(env, &mut st.core, st.clock_s);
            let rec = SchedRound {
                round: t,
                selected: sim.completed.len() + sim.stragglers.len() + sim.dropped_out.len(),
                dropped_out: sim.dropped_out.len(),
                stragglers: sim.stragglers.len(),
                completed: sim.completed.len(),
                participation_weight,
                train_loss,
                val_clean,
                val_adv,
                round_time_s,
                clock_s: st.clock_s,
                down_bytes: tally.down_bytes,
                up_bytes: tally.up_bytes,
                delta_dispatches: tally.delta_dispatches,
                edges_active: tally.edges_active,
                filtered: robust.filtered,
                clip_applied: robust.clip_applied,
                unavailable: tally.unavailable,
                outage_lost: tally.outage_lost,
                throttled: tally.throttled,
            };
            emit(&mut sink, &mut st.ledger, rec);
        }
    }

    /// Samples, gates, drops, plans and simulates one round's timeline.
    /// The whole cohort is planned against the cache table as the round
    /// found it; the table advances afterwards — delivered dispatches
    /// record `(round, shape)`, dropped ones lose their row, trace-gated
    /// ones (never delivered) keep theirs.
    fn plan_round(
        &self,
        env: &FlEnv,
        t: usize,
        st: &mut DriveState<T::ServerState>,
    ) -> (RoundSim, RoundTally) {
        let (stack, cfg, clock) = (self.stack(), &env.cfg, st.clock_s);
        let target = cfg.clients_per_round;
        let n_sel = over_select_count(target, self.sched.over_select, cfg.n_clients);
        let ids = env.sample_round_n(t, n_sel);
        let mut dropped = draw_dropouts(env, t, ids.len(), self.sched.dropout_p);
        // Snapshot the model the round dispatches (version `t`) so future
        // rounds can diff against it.
        st.core.comm.note_version(t, &st.core.state);
        let mut tally = RoundTally::default();
        let planned: Vec<Option<Planned>> = ids
            .iter()
            .map(|&k| match stack.gate(env, t, k, clock) {
                Some(TraceLoss::Unavailable) => {
                    tally.unavailable += 1;
                    None
                }
                Some(TraceLoss::Outage) => {
                    tally.outage_lost += 1;
                    None
                }
                None => {
                    let dev = sample_availability(env, t, k);
                    Some(stack.plan(env, &mut st.core, t, k, &dev, clock))
                }
            })
            .collect();
        for (i, &k) in ids.iter().enumerate() {
            // Trace-gated clients never report, exactly like dropouts —
            // the ledger's `unavailable`/`outage_lost` break out the cause.
            let Some(p) = &planned[i] else {
                dropped[i] = true;
                continue;
            };
            tally.down_bytes += p.payload.down_bytes;
            tally.delta_dispatches += p.payload.is_delta() as usize;
            if dropped[i] {
                // A dropped-out client vanishes before training.
                stack.lost(&mut st.core, k, QuantLoss::Dropout);
            } else {
                tally.throttled += p.throttled as usize;
                stack.delivered(env, &mut st.core, t, k, p, clock);
            }
        }
        let latency: Vec<ClientLatency> = planned
            .iter()
            .map(|p| p.as_ref().map_or_else(ClientLatency::zero, |p| p.lat))
            .collect();
        let sim = simulate_round(&ids, &latency, &dropped, target, &self.sched);
        // A completed client's *actual* up-link bytes: the dense spec
        // size, or the quantized wire size when the trainer compresses.
        // `sample_round_n` returns ascending ids.
        let up = |k: &usize| {
            let i = ids
                .binary_search(k)
                .expect("completed clients were selected");
            let p = planned[i].as_ref();
            p.expect("completed clients were planned").payload.up_bytes
        };
        // Only completed clients' updates reach the server's up-link.
        tally.up_bytes = sim.completed.iter().map(up).sum();
        // Hierarchical only: group the completed clients by cohort; each
        // active edge forwards one partial sum (wire size = its densest
        // member update — re-quantized by the edge when the plane is on)
        // and the hops run concurrently.
        if self.topo.is_hierarchical() {
            let mut per_edge: BTreeMap<usize, u64> = BTreeMap::new();
            for k in &sim.completed {
                let bytes = per_edge
                    .entry(self.topo.cohort_of(cfg.seed, *k))
                    .or_insert(0);
                *bytes = (*bytes).max(up(k));
            }
            tally.edges_active = per_edge.len();
            tally.edge_forward_s = per_edge
                .values()
                .map(|&b| self.topo.uplink.forward_s(b))
                .fold(0.0, f64::max);
        }
        (sim, tally)
    }
}

/// A planned round's wire-traffic and trace tally.
#[derive(Default)]
struct RoundTally {
    down_bytes: u64,
    up_bytes: u64,
    delta_dispatches: usize,
    /// Edge aggregators that forwarded a bundle (0 on the flat topology).
    edges_active: usize,
    /// The round-close forwarding hop: max edge→server bundle transfer.
    edge_forward_s: f64,
    /// Selected clients the trace plane's diurnal curve made unreachable.
    unavailable: usize,
    /// Selected clients lost to a dark outage window.
    outage_lost: usize,
    /// Surviving dispatches whose latency the trace plane scaled.
    throttled: usize,
}

/// Client `k`'s device with its round-`t` real-time availability drawn
/// from the per-`(round, client)` stream both schedulers share.
pub fn sample_availability(env: &FlEnv, t: usize, k: usize) -> DeviceSample {
    let mut s = env.client_device(k);
    s.resample_availability(&mut env.client_rng(t, k, SALT_AVAIL));
    s
}

/// Every cloneable trainer is an algorithm: it runs on the default
/// scheduler config (wait-all barrier, no dropout, no over-selection),
/// which reproduces the historical lockstep loops bit-for-bit.
impl<T: ScheduledTrainer + Clone> crate::engine::FlAlgorithm for T {
    fn name(&self) -> &'static str {
        ScheduledTrainer::name(self)
    }

    fn run(&self, env: &FlEnv) -> FlOutcome {
        EventScheduler::new(self.clone(), SchedConfig::default())
            .run(env)
            .into_fl_outcome()
    }
}

impl<T: ScheduledTrainer> crate::engine::FlAlgorithm for EventScheduler<T> {
    fn name(&self) -> &'static str {
        self.trainer.name()
    }

    fn run(&self, env: &FlEnv) -> FlOutcome {
        EventScheduler::run(self, env).into_fl_outcome()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat(total: f64) -> ClientLatency {
        ClientLatency {
            compute_s: total,
            data_access_s: 0.0,
            transfer_s: 0.0,
        }
    }

    #[test]
    fn median_deadline_counts_transfer_time() {
        // Three clients with equal compute but one slow link: the median
        // of the *totals* (1.5, 2.0, 6.0) is 2.0, so a 1× median deadline
        // admits the two fast-link clients and cuts the slow one — the
        // estimate must see communication, not just compute.
        let cfg = SchedConfig {
            deadline: DeadlinePolicy::MedianMultiple(1.0),
            ..SchedConfig::default()
        };
        let mk = |transfer: f64| ClientLatency {
            compute_s: 1.0,
            data_access_s: 0.0,
            transfer_s: transfer,
        };
        let sim = simulate_round(
            &[1, 2, 3],
            &[mk(0.5), mk(1.0), mk(5.0)],
            &[false; 3],
            3,
            &cfg,
        );
        assert_eq!(sim.completed, vec![1, 2]);
        assert_eq!(sim.stragglers, vec![3]);
        assert_eq!(sim.round_time_s, 2.0);
    }

    #[test]
    fn wait_all_completes_everyone() {
        let cfg = SchedConfig::default();
        let sim = simulate_round(
            &[3, 5, 9],
            &[lat(2.0), lat(1.0), lat(5.0)],
            &[false, false, false],
            3,
            &cfg,
        );
        assert_eq!(sim.completed, vec![3, 5, 9]);
        assert!(sim.stragglers.is_empty());
        assert_eq!(sim.round_time_s, 5.0);
    }

    #[test]
    fn deadline_cuts_stragglers_fedavg_set() {
        let cfg = SchedConfig {
            deadline: DeadlinePolicy::FixedSeconds(3.0),
            ..SchedConfig::default()
        };
        let sim = simulate_round(
            &[1, 2, 3],
            &[lat(2.0), lat(10.0), lat(1.0)],
            &[false; 3],
            3,
            &cfg,
        );
        assert_eq!(sim.completed, vec![1, 3]);
        assert_eq!(sim.stragglers, vec![2]);
        assert_eq!(sim.round_time_s, 3.0);
    }

    #[test]
    fn finish_exactly_at_deadline_counts() {
        let cfg = SchedConfig {
            deadline: DeadlinePolicy::FixedSeconds(2.0),
            ..SchedConfig::default()
        };
        let sim = simulate_round(&[7, 8], &[lat(2.0), lat(9.0)], &[false, false], 2, &cfg);
        assert_eq!(sim.completed, vec![7]);
        assert_eq!(sim.stragglers, vec![8]);
    }

    #[test]
    fn deadline_waits_for_minimum_completions() {
        let cfg = SchedConfig {
            deadline: DeadlinePolicy::FixedSeconds(0.5),
            ..SchedConfig::default()
        };
        let sim = simulate_round(&[4, 6], &[lat(2.0), lat(3.0)], &[false, false], 2, &cfg);
        // Nobody met the deadline; the progress guarantee admits the first
        // finisher and closes there.
        assert_eq!(sim.completed, vec![4]);
        assert_eq!(sim.stragglers, vec![6]);
        assert_eq!(sim.round_time_s, 2.0);
    }

    #[test]
    fn over_selection_closes_at_target() {
        let cfg = SchedConfig::default();
        // Target 2 of 4 selected: round closes at the 2nd completion.
        let sim = simulate_round(
            &[1, 2, 3, 4],
            &[lat(4.0), lat(1.0), lat(2.0), lat(8.0)],
            &[false; 4],
            2,
            &cfg,
        );
        assert_eq!(sim.completed, vec![2, 3]);
        assert_eq!(sim.stragglers, vec![1, 4]);
        assert_eq!(sim.round_time_s, 2.0);
    }

    #[test]
    fn dropouts_never_report() {
        let cfg = SchedConfig::default();
        let sim = simulate_round(
            &[1, 2, 3],
            &[lat(1.0), lat(2.0), lat(3.0)],
            &[false, true, false],
            3,
            &cfg,
        );
        assert_eq!(sim.completed, vec![1, 3]);
        assert_eq!(sim.dropped_out, vec![2]);
        assert_eq!(sim.round_time_s, 3.0);
    }

    #[test]
    fn all_dropped_round_is_empty() {
        let cfg = SchedConfig::default();
        let sim = simulate_round(&[1, 2], &[lat(1.0), lat(2.0)], &[true, true], 2, &cfg);
        assert!(sim.completed.is_empty());
        assert_eq!(sim.dropped_out, vec![1, 2]);
        assert_eq!(sim.round_time_s, 0.0);
    }

    #[test]
    fn min_completions_floor_binds_target_close() {
        let cfg = SchedConfig {
            min_completions: 3,
            ..SchedConfig::default()
        };
        // Target 2 of 4 survivors: the progress floor raises the close to
        // the 3rd finish.
        let sim = simulate_round(
            &[1, 2, 3, 4],
            &[lat(1.0), lat(2.0), lat(3.0), lat(4.0)],
            &[false; 4],
            2,
            &cfg,
        );
        assert_eq!(sim.completed, vec![1, 2, 3]);
        assert_eq!(sim.stragglers, vec![4]);
        assert_eq!(sim.round_time_s, 3.0);
    }

    #[test]
    fn median_deadline_is_deterministic() {
        let cfg = SchedConfig {
            deadline: DeadlinePolicy::MedianMultiple(1.0),
            ..SchedConfig::default()
        };
        // Median of {1, 2, 10} = 2 → close at 2.0 with two completions.
        let sim = simulate_round(
            &[1, 2, 3],
            &[lat(1.0), lat(2.0), lat(10.0)],
            &[false; 3],
            3,
            &cfg,
        );
        assert_eq!(sim.completed, vec![1, 2]);
        assert_eq!(sim.round_time_s, 2.0);
    }

    #[test]
    #[should_panic(expected = "over_select")]
    fn rejects_under_selection() {
        SchedConfig {
            over_select: 0.5,
            ..SchedConfig::default()
        }
        .validate();
    }

    #[test]
    fn model_hash_distinguishes_models() {
        let mut rng = fp_tensor::seeded_rng(0);
        let a = fp_nn::models::tiny_vgg(3, 8, 4, &[4], &mut rng);
        let mut b = a.clone();
        assert_eq!(model_hash(&a), model_hash(&b));
        let mut params = b.flat_params();
        params[0] += 1.0;
        b.set_flat_params(&params);
        assert_ne!(model_hash(&a), model_hash(&b));
    }
}
