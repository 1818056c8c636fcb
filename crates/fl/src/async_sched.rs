//! The barrier-free aggregator (FedBuff-style): the other **barrier
//! policy** over the shared run core.
//!
//! Everything a dispatch goes through — trace gate, payload planning,
//! wire sizing, `fp-hwsim` costing, throttling, cache bookkeeping, the
//! training fan-out, evaluation, checkpoint plane keys, resume checks —
//! is the code the round scheduler ([`crate::sched`]) runs too (the
//! crate-private `run.rs` has the stage diagram). That scheduler closes
//! discrete rounds: however aggressive the deadline, the server waits,
//! aggregates, then re-dispatches everyone at once. This module removes
//! the barrier entirely (Nguyen et al. 2022, FedBuff), on a continuous,
//! absolute virtual timeline ([`AsyncTimeline`]):
//!
//! * up to [`AsyncConfig::concurrency`] clients are in flight at any
//!   virtual instant, each costed end-to-end on its degraded device;
//!   per-dispatch dropout draws and a server-side timeout reclaim lost
//!   slots;
//! * finished updates stream into a **staleness buffer** (through edge
//!   bundles on a hierarchical topology); every
//!   [`AsyncConfig::buffer_k`] buffered updates the server aggregates
//!   them into the global model with FedAvg weights discounted by
//!   `1/(1+staleness)^a` ([`staleness_weight`]), where staleness is the
//!   number of model versions that elapsed since the update's dispatch;
//! * the slot freed by a finished client re-arms **immediately** — the
//!   virtual clock never blocks on a straggler, it simply keeps serving
//!   fast clients while a swapping TX2 grinds on.
//!
//! # Degenerate synchronism
//!
//! With `concurrency = buffer_k = n_clients`, `clients_per_round =
//! n_clients`, and `a = 0`, every client is dispatched at every version,
//! the buffer only fills when the slowest client reports, and the
//! discount is exactly 1 — the loop **is** the wait-all synchronous
//! round, bit-for-bit (same availability draws, same training streams,
//! same aggregation order and weights, same virtual clock). The
//! equivalence suite in `tests/async_e2e.rs` pins this, which is what
//! keeps the historical lockstep results meaningful as the async path
//! evolves.
//!
//! # Determinism
//!
//! Everything is a pure function of `(FlConfig::seed, version, client)`:
//! availability is drawn from the per-`(version, client)` streams shared
//! with the sync scheduler, client picking from a per-dispatch-index
//! stream, and training from the same `(seed, version, client)` streams
//! the baselines always used. A client is dispatched **at most once per
//! model version** (an identical re-dispatch would replay the exact same
//! simulated update); slots idled by this rule re-arm at the next
//! aggregation. The ledger and final model are bit-identical at any
//! worker-thread budget.
//!
//! # Checkpointing
//!
//! Pending dispatches are pure descriptors; the local training runs
//! lazily when the buffer flushes, against the snapshot of each entry's
//! dispatch version — so nothing is ever trained and then discarded,
//! and [`AsyncCheckpoint`] captures the full mid-flight state (buffered
//! *and* in-flight dispatches) without serializing model updates: every
//! pending update is a pure function of `(dispatch version, client)`,
//! and a resumed run re-derives it at its flush, bit-identically.

use crate::comm::{CommConfig, CommState};
use crate::engine::FlEnv;
use crate::metrics::{FlOutcome, RoundRecord};
use crate::quant::QuantLoss;
use crate::run::{emit, Core, Event, EventKind, Outcome, Saved, Sink, Stack};
use crate::sched::{sample_availability, ModelState, ScheduledTrainer};
use crate::topology::TopologyConfig;
use crate::trace::TraceLoss;
use fp_hwsim::Payload;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BinaryHeap};

/// Domain-separation salt for the per-dispatch client-picking stream.
const SALT_DISPATCH: u64 = 0xA51D_15BA;

/// Domain-separation salt for per-dispatch dropout draws (rides the same
/// [`FlEnv::client_rng`] `(version, client)` streams as availability, so
/// a dropout draw is a pure function of `(seed, version, client)`).
pub const SALT_ASYNC_DROP: u64 = 0xA5D8_090D;

const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

// ------------------------------------------------------------------ config

/// Barrier-free aggregation policy knobs.
///
/// The dropout/timeout and adaptive-buffer fields were added after the
/// first checkpoint format shipped; they serialize only when active so
/// pre-refactor checkpoints round-trip byte-identically.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AsyncConfig {
    /// Maximum clients training concurrently (FedBuff's `M_c`). Freed
    /// slots re-arm immediately.
    pub concurrency: usize,
    /// Aggregate every `K` buffered updates (FedBuff's buffer size; the
    /// starting threshold when `adaptive_buffer` is set).
    pub buffer_k: usize,
    /// Staleness-discount exponent `a`: an update `s` versions stale is
    /// weighted by `1/(1+s)^a`. `0` disables discounting (plain FedAvg
    /// over the buffer).
    pub staleness_exp: f64,
    /// Per-dispatch probability that the client silently vanishes and
    /// never reports (network loss, app eviction). Drawn from the
    /// per-`(version, client)` [`FlEnv::client_rng`] stream
    /// ([`SALT_ASYNC_DROP`]). Requires `timeout_s`.
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub dropout_p: f64,
    /// Server-side dispatch timeout (virtual seconds): a dispatch that
    /// has not reported after this long is abandoned — the slot is
    /// reclaimed, the (eventual) update discarded, and the client's
    /// communication-plane cache entry invalidated. `None` waits forever
    /// (the historical behavior).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub timeout_s: Option<f64>,
    /// Adaptive flush threshold `(k_min, k_max)`: after every
    /// aggregation the buffer threshold is rescaled from the observed
    /// mean staleness (see [`adaptive_k`]), bounded to this range. `None`
    /// keeps `buffer_k` static.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub adaptive_buffer: Option<(usize, usize)>,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            concurrency: 4,
            buffer_k: 2,
            staleness_exp: 0.5,
            dropout_p: 0.0,
            timeout_s: None,
            adaptive_buffer: None,
        }
    }
}

impl AsyncConfig {
    /// The degenerate configuration that reproduces the wait-all
    /// synchronous round bit-for-bit on a fleet of `n_clients` (with
    /// `clients_per_round = n_clients`).
    pub fn synchronous(n_clients: usize) -> Self {
        AsyncConfig {
            concurrency: n_clients,
            buffer_k: n_clients,
            staleness_exp: 0.0,
            ..AsyncConfig::default()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on degenerate values.
    pub fn validate(&self) {
        assert!(self.concurrency >= 1, "concurrency must be >= 1");
        assert!(self.buffer_k >= 1, "buffer_k must be >= 1");
        assert!(
            self.staleness_exp >= 0.0 && self.staleness_exp.is_finite(),
            "staleness_exp must be finite and >= 0"
        );
        assert!(
            (0.0..1.0).contains(&self.dropout_p),
            "dropout_p must be in [0, 1)"
        );
        if let Some(to) = self.timeout_s {
            assert!(to > 0.0 && to.is_finite(), "timeout_s must be positive");
        }
        assert!(
            self.dropout_p == 0.0 || self.timeout_s.is_some(),
            "dropout_p > 0 requires timeout_s: a dropped dispatch would hold its slot forever"
        );
        if let Some((k_min, k_max)) = self.adaptive_buffer {
            assert!(
                1 <= k_min && k_min <= k_max,
                "adaptive_buffer requires 1 <= k_min <= k_max"
            );
        }
    }

    /// The flush threshold a fresh run starts with.
    fn initial_k(&self) -> usize {
        match self.adaptive_buffer {
            None => self.buffer_k,
            Some((k_min, k_max)) => self.buffer_k.clamp(k_min, k_max),
        }
    }
}

/// The adaptive flush threshold after an aggregation with mean staleness
/// `s̄`: `clamp(round(buffer_k · (1 + s̄)), k_min, k_max)`. High observed
/// staleness widens the buffer — one flush then absorbs a whole version's
/// worth of updates, producing fewer version bumps and therefore less
/// staleness; zero staleness returns to the configured `buffer_k`.
pub fn adaptive_k(buffer_k: usize, mean_staleness: f32, k_min: usize, k_max: usize) -> usize {
    ((buffer_k as f64 * (1.0 + mean_staleness as f64)).round() as usize).clamp(k_min, k_max)
}

/// The FedBuff staleness discount `1/(1+s)^a`. Exactly `1.0` for every
/// staleness when `a = 0` (IEEE `pow(x, 0) = 1`), which is what makes the
/// degenerate config reduce to plain FedAvg bit-for-bit.
pub fn staleness_weight(staleness: usize, exp: f64) -> f32 {
    (1.0 / (1.0 + staleness as f64)).powf(exp) as f32
}

// ---------------------------------------------------------------- timeline

/// The continuous virtual-time dispatch fabric: slot bookkeeping, the
/// finish-event queue, and the deterministic client picker. Shared
/// between the generic [`AsyncScheduler`] and FedProphet's async
/// module-window loop (which buffers and aggregates with its own rules).
/// Memory is O(in-flight + dispatched-this-version), not O(fleet): the
/// busy/dispatched tables are sorted id sets, so a 10⁶-client fleet with
/// 100 concurrent slots holds ~100 entries, and the picker never
/// materializes the eligible list (it order-statistics over the blocked
/// sets instead — bit-identical to indexing the old eligible vector).
#[derive(Debug, Clone)]
pub struct AsyncTimeline {
    seed: u64,
    n_clients: usize,
    concurrency: usize,
    clock_s: f64,
    events: BinaryHeap<std::cmp::Reverse<Event>>,
    busy: std::collections::BTreeSet<usize>,
    dispatched_at_version: std::collections::BTreeSet<usize>,
    free_slots: usize,
    dispatch_count: u64,
}

impl AsyncTimeline {
    /// A fresh timeline at virtual time 0 with every slot free.
    ///
    /// # Panics
    ///
    /// Panics if `concurrency` is 0 or exceeds the fleet size.
    pub fn new(seed: u64, n_clients: usize, concurrency: usize) -> Self {
        assert!(
            (1..=n_clients).contains(&concurrency),
            "concurrency must be in 1..=n_clients"
        );
        AsyncTimeline {
            seed,
            n_clients,
            concurrency,
            clock_s: 0.0,
            events: BinaryHeap::new(),
            busy: std::collections::BTreeSet::new(),
            dispatched_at_version: std::collections::BTreeSet::new(),
            free_slots: concurrency,
            dispatch_count: 0,
        }
    }

    /// Fleet size this timeline schedules over. Event ids at or above
    /// this are synthetic (edge-arrival events), never clients.
    pub fn n_clients(&self) -> usize {
        self.n_clients
    }

    /// Clients dispatched against the current model version, ascending.
    pub fn dispatched_ids(&self) -> Vec<usize> {
        self.dispatched_at_version.iter().copied().collect()
    }

    /// Current virtual time.
    pub fn clock_s(&self) -> f64 {
        self.clock_s
    }

    /// Total dispatches so far (the picker's stream counter).
    pub fn dispatch_count(&self) -> u64 {
        self.dispatch_count
    }

    /// Clients currently in flight.
    pub fn in_flight(&self) -> usize {
        self.concurrency - self.free_slots
    }

    /// Fills free slots with eligible clients — not in flight and not yet
    /// dispatched at the current model version — picking uniformly from a
    /// per-dispatch-index stream. Returns the picked clients in dispatch
    /// order; the caller must [`AsyncTimeline::schedule_finish`] each.
    pub fn pick_dispatches(&mut self) -> Vec<usize> {
        let mut picked = Vec::new();
        while self.free_slots > 0 {
            // The i-th smallest eligible id, found by skipping over the
            // sorted union of blocked ids — identical to indexing the
            // materialized ascending eligible list, without the O(N)
            // scan or allocation.
            let mut blocked: Vec<usize> = self
                .busy
                .iter()
                .chain(self.dispatched_at_version.iter())
                .copied()
                .collect();
            blocked.sort_unstable();
            blocked.dedup();
            let n_eligible = self.n_clients - blocked.len();
            if n_eligible == 0 {
                break;
            }
            let mut rng = fp_tensor::seeded_rng(
                self.seed ^ SALT_DISPATCH ^ self.dispatch_count.wrapping_mul(PHI),
            );
            let mut k = rng.gen_range(0..n_eligible);
            for &b in &blocked {
                if b <= k {
                    k += 1;
                } else {
                    break;
                }
            }
            self.busy.insert(k);
            self.dispatched_at_version.insert(k);
            self.free_slots -= 1;
            self.dispatch_count += 1;
            picked.push(k);
        }
        picked
    }

    /// Schedules the finish event of a just-picked client.
    pub fn schedule_finish(&mut self, client: usize, finish_s: f64) {
        self.events.push(std::cmp::Reverse(Event {
            time: finish_s,
            kind: EventKind::Finish { client },
        }));
    }

    /// Pops the next event, advances the clock to it, and — when it is a
    /// client finish — frees the client's slot. Synthetic ids (at or
    /// above the fleet size, used for edge-arrival events) never held a
    /// slot, so they leave the slot accounting untouched. `None` when no
    /// events are pending.
    pub fn next_finish(&mut self) -> Option<(f64, usize)> {
        let std::cmp::Reverse(Event { time, kind }) = self.events.pop()?;
        let EventKind::Finish { client } = kind else {
            unreachable!("the timeline only schedules finishes");
        };
        self.clock_s = time;
        if self.busy.remove(&client) {
            self.free_slots += 1;
        }
        Some((time, client))
    }

    /// Marks a model-version bump: every client becomes dispatchable
    /// again (against the *new* version).
    pub fn bump_version(&mut self) {
        self.dispatched_at_version.clear();
    }

    /// Rebuilds a mid-flight timeline from checkpoint state.
    ///
    /// # Panics
    ///
    /// Panics if the in-flight set exceeds `concurrency` or repeats a
    /// client.
    pub fn restore(
        seed: u64,
        n_clients: usize,
        concurrency: usize,
        clock_s: f64,
        dispatch_count: u64,
        dispatched_at_version: &[usize],
        in_flight: &[(usize, f64)],
    ) -> Self {
        let mut tl = AsyncTimeline::new(seed, n_clients, concurrency);
        tl.clock_s = clock_s;
        tl.dispatch_count = dispatch_count;
        for &k in dispatched_at_version {
            tl.dispatched_at_version.insert(k);
        }
        assert!(in_flight.len() <= concurrency, "in-flight exceeds slots");
        for &(k, finish_s) in in_flight {
            assert!(tl.busy.insert(k), "client {k} in flight twice");
            tl.free_slots -= 1;
            tl.schedule_finish(k, finish_s);
        }
        tl
    }
}

// ------------------------------------------------------------------ ledger

/// One asynchronous aggregation's ledger entry.
///
/// The payload/dropout/adaptive fields (`down_bytes`, `up_bytes`,
/// `delta_merged`, `timed_out`, `flush_k`) serialize only when non-trivial
/// so pre-refactor ledgers round-trip byte-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsyncAggRecord {
    /// Aggregation index (the model version this aggregation produced is
    /// `agg + 1`).
    pub agg: usize,
    /// Updates merged (the buffer size at flush).
    pub merged: usize,
    /// The merged clients, in merge order (ascending client id; a client
    /// can appear twice when updates from two dispatch versions land in
    /// one buffer).
    pub clients: Vec<usize>,
    /// Mean staleness (model versions) of the merged updates.
    pub mean_staleness: f32,
    /// Maximum staleness among the merged updates.
    pub max_staleness: usize,
    /// `Σ discount·w / Σ w` over the merged updates — the FedAvg mass the
    /// staleness discount retained (1.0 when nothing was stale or `a=0`).
    pub weight_retained: f32,
    /// Sum of undiscounted FedAvg weights of the merged clients.
    pub participation_weight: f32,
    /// Mean local training loss of the merged updates.
    pub train_loss: f32,
    /// Validation clean accuracy, when measured at this aggregation.
    pub val_clean: Option<f32>,
    /// Validation adversarial accuracy, when measured at this aggregation.
    pub val_adv: Option<f32>,
    /// Mean up/down-link transfer seconds of the merged dispatches.
    pub mean_transfer_s: f64,
    /// Virtual time since the previous aggregation.
    pub round_time_s: f64,
    /// Virtual clock at this aggregation.
    pub clock_s: f64,
    /// Down-link payload bytes of the merged dispatches
    /// (delta-compressed where the cache allowed it).
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub down_bytes: u64,
    /// Up-link update bytes of the merged dispatches.
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub up_bytes: u64,
    /// Merged dispatches whose download was delta-encoded.
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub delta_merged: usize,
    /// Dispatches reclaimed by the server-side timeout since the previous
    /// aggregation (dropouts and over-deadline stragglers alike — the
    /// server cannot tell them apart).
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub timed_out: usize,
    /// The adaptive flush threshold this aggregation fired at (`None`
    /// when the buffer is static).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub flush_k: Option<usize>,
    /// Edge partial-sum bundles merged by this aggregation (0 on the
    /// flat topology, where the server buffers client updates directly).
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub bundles: usize,
    /// Edge flushes (upstream forwards) since the previous aggregation.
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub edge_flushes: usize,
    /// Clients whose updates the robust aggregation rule filtered out of
    /// this flush, with reasons — the rule runs *after* the staleness
    /// discount, so the evidence reflects the weights actually merged
    /// (empty — and absent from the JSON — under plain FedAvg).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub filtered: Vec<crate::byz::FilteredClient>,
    /// Updates whose norm the robust rule clipped before merging (0 —
    /// and absent from the JSON — under plain FedAvg).
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub clip_applied: usize,
    /// Dispatches the trace plane's diurnal curve made unreachable since
    /// the previous aggregation (0 — and absent from the JSON — with no
    /// trace plan).
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub unavailable: usize,
    /// Dispatches lost to dark outage windows since the previous
    /// aggregation — reclaimed through the timeout path but attributed
    /// here, not to `timed_out` (0 — and absent from the JSON — with no
    /// trace plan).
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub outage_lost: usize,
    /// Merged dispatches whose latency the trace plane scaled (thermal
    /// throttle or timing adversary; 0 — and absent from the JSON —
    /// with no trace plan).
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub throttled: usize,
}

// --------------------------------------------------------------- scheduler

/// The barrier-free asynchronous aggregator.
#[derive(Debug, Clone)]
pub struct AsyncScheduler<T> {
    /// The algorithm being driven (same contract the sync scheduler
    /// drives — staleness enters through
    /// [`crate::sched::ScheduledTrainer::merge_weighted`]).
    pub trainer: T,
    /// Aggregation policy.
    pub acfg: AsyncConfig,
    /// Communication-plane policy (delta downloads / client caching).
    /// Disabled by default — dispatch costs are then bit-identical to the
    /// pre-communication-plane aggregator.
    pub comm: CommConfig,
    /// Aggregation-tree shape. Flat by default — every existing config
    /// reproduces its pre-topology schedule bit-for-bit.
    pub topo: TopologyConfig,
    /// Availability-trace plan (diurnal curves, thermal throttling,
    /// correlated outages). `None` (the default) keeps dispatch
    /// eligibility unconditional — bit-identical to the pre-trace
    /// aggregator.
    pub trace: Option<crate::trace::TracePlan>,
}

/// The result of an asynchronous run.
pub type AsyncOutcome<S = ModelState> = Outcome<S, AsyncAggRecord>;

impl From<&AsyncAggRecord> for RoundRecord {
    fn from(r: &AsyncAggRecord) -> Self {
        RoundRecord {
            round: r.agg,
            train_loss: r.train_loss,
            val_clean: r.val_clean,
            val_adv: r.val_adv,
        }
    }
}

/// Where [`AsyncScheduler::run_until`] stops: after `aggregations`
/// aggregations, then after `buffered` further updates have entered the
/// (post-flush, empty) buffer — so a checkpoint can be taken with both
/// buffered updates and in-flight clients pending.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AsyncStopPoint {
    /// Aggregations to complete.
    pub aggregations: usize,
    /// Buffered-but-unflushed updates to accumulate afterwards (must be
    /// `< buffer_k`, or the buffer would have flushed first).
    pub buffered: usize,
}

impl AsyncStopPoint {
    /// Stop right after an aggregation (empty buffer).
    pub fn after_agg(aggregations: usize) -> Self {
        AsyncStopPoint {
            aggregations,
            buffered: 0,
        }
    }
}

/// A bundle forwarded by an edge, mid-flight on the backhaul: the
/// virtual clock at which it reaches the server, and the cohort
/// dispatches whose updates it carries.
pub type UpstreamBundle = (f64, Vec<PendingDispatch>);

/// One pending (buffered or in-flight) dispatch, as stored in a
/// checkpoint. The update itself is *not* stored: it is a pure function
/// of `(version, client)` and the version's model, so resume re-derives
/// it bit-identically.
///
/// The `payload` and `lost` fields serialize only when non-trivial so
/// pre-refactor checkpoints round-trip byte-identically (a legacy entry
/// deserializes as a delivered full-payload dispatch).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PendingDispatch {
    /// Client id.
    pub client: usize,
    /// Model version the client was dispatched against.
    pub version: usize,
    /// Virtual dispatch time.
    pub dispatch_s: f64,
    /// Virtual finish time: dispatch + hwsim round trip, or the timeout
    /// instant for a lost dispatch (when its slot is reclaimed).
    pub finish_s: f64,
    /// Up/down-link transfer seconds of the dispatch.
    pub transfer_s: f64,
    /// The wire payload of the dispatch (`None` on entries loaded from
    /// pre-communication-plane checkpoints).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub payload: Option<Payload>,
    /// Whether the dispatch is lost (client dropout or over-timeout
    /// straggler): its event reclaims the slot instead of buffering an
    /// update, and the client's cache entry is invalidated.
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub lost: bool,
    /// Why the trace plane lost this dispatch (`None` for the plain
    /// dropout/timeout loss — and for every delivered dispatch). Decides
    /// which ledger counter the reclaim feeds, and whether the cache is
    /// invalidated (an unavailable client never received the download).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cause: Option<crate::trace::TraceLoss>,
    /// Whether the trace plane scaled this dispatch's latency (thermal
    /// throttle or timing adversary) — ledger reporting at flush.
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub throttled: bool,
}

/// A serializable snapshot of an asynchronous run, including buffered
/// updates and in-flight clients (as replay descriptors — see
/// [`PendingDispatch`]). Validated on [`AsyncScheduler::resume`] so a
/// checkpoint can never silently continue under different rules.
///
/// The server state serializes under the historical `"model"` key (and
/// past versions under `"past_models"`): for [`ModelState`] the JSON is
/// bit-identical to the pre-generalization format.
#[derive(Serialize, Deserialize)]
pub struct AsyncCheckpoint<S = ModelState> {
    /// Aggregations already performed (= current model version).
    pub version: usize,
    /// Virtual clock at capture time.
    pub clock_s: f64,
    /// Virtual clock of the last aggregation (round_time baseline).
    pub last_agg_clock_s: f64,
    /// The dispatch-picker stream counter.
    pub dispatch_count: u64,
    /// Master seed of every RNG stream.
    pub seed: u64,
    /// Aggregation policy the run was started with.
    pub acfg: AsyncConfig,
    /// Name of the algorithm that produced the checkpoint.
    pub algorithm: String,
    /// `n_clients` of the originating environment.
    pub n_clients: usize,
    /// Total aggregations of the originating run (eval cadence depends
    /// on it).
    pub rounds: usize,
    /// Current server state (historically a bare model checkpoint, hence
    /// the serialized field name `model`).
    #[serde(rename = "model")]
    pub state: S,
    /// Ledger of the aggregations already performed.
    pub ledger: Vec<AsyncAggRecord>,
    /// Buffered updates, in arrival order.
    pub buffer: Vec<PendingDispatch>,
    /// In-flight clients, in dispatch order.
    pub in_flight: Vec<PendingDispatch>,
    /// Clients already dispatched at the current version.
    pub dispatched_at_version: Vec<usize>,
    /// Snapshots of past state versions still referenced by pending
    /// dispatches.
    #[serde(rename = "past_models")]
    pub past_states: Vec<(usize, S)>,
    /// Communication-plane state; `None` when caching is disabled (and
    /// then absent from the JSON).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub comm: Option<CommState<S>>,
    /// Live adaptive flush threshold (`None` when the buffer is static).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cur_k: Option<usize>,
    /// Dispatches reclaimed by timeout since the last aggregation (the
    /// count the next ledger record reports).
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub timed_out: usize,
    /// Aggregation topology; `None` on the flat single-server topology
    /// (and then absent from the JSON, keeping pre-topology checkpoints
    /// byte-identical).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub topo: Option<TopologyConfig>,
    /// Hierarchical only: per-edge cohort accumulation at capture time.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub edge_buffers: Vec<(usize, Vec<PendingDispatch>)>,
    /// Hierarchical only: forwarded bundles mid-flight on the backhaul,
    /// per edge, as `(arrival clock, entries)`.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub upstream: Vec<(usize, Vec<UpstreamBundle>)>,
    /// Bundles in the server buffer (the flush-threshold unit on a
    /// two-tier topology).
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub bundles: usize,
    /// Edge flushes since the last aggregation.
    #[serde(default, skip_serializing_if = "serde::is_default")]
    pub edge_flushes: usize,
    /// Byzantine policy (robust rule + attack plan); `None` for honest
    /// trainers and trivial policies (and then absent from the JSON,
    /// keeping pre-Byzantine checkpoints byte-identical).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub byz: Option<crate::byz::ByzPolicy>,
    /// Availability-trace plan + thermal state + in-progress loss
    /// counters; `None` with no trace plan (and then absent from the
    /// JSON, keeping pre-trace checkpoints byte-identical).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub trace: Option<crate::trace::TraceCheckpoint>,
    /// Quantization-plane policy + error-feedback residual table; `None`
    /// for dense trainers (and then absent from the JSON, keeping
    /// pre-quantization checkpoints byte-identical).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub quant: Option<crate::quant::QuantState>,
}

/// Mutable state of a live asynchronous run.
///
/// Pending dispatches are pure descriptors — the actual local training
/// runs lazily at flush time ([`AsyncScheduler::aggregate`]), against the
/// snapshot of each entry's dispatch version. Nothing is ever trained
/// and then discarded, and a checkpoint is just these descriptors plus
/// the referenced model snapshots.
struct AsyncState<S> {
    /// Current server state plus the comm and trace planes (the trace
    /// plane's loss counters run since the last aggregation).
    core: Core<S>,
    version: usize,
    timeline: AsyncTimeline,
    /// Buffered (finished, unflushed) dispatches in arrival order.
    buffer: Vec<PendingDispatch>,
    /// In-flight dispatches (unordered; keyed by client).
    in_flight: Vec<PendingDispatch>,
    /// Past state versions still referenced by pending dispatches.
    past_states: Vec<(usize, S)>,
    ledger: Vec<AsyncAggRecord>,
    last_agg_clock: f64,
    /// Current flush threshold (rescaled per aggregation when adaptive).
    cur_k: usize,
    /// Dispatches reclaimed by timeout since the last aggregation.
    timed_out: usize,
    /// Hierarchical only: per-edge cohort accumulation (rows exist only
    /// for edges with pending updates).
    edge_buffers: BTreeMap<usize, Vec<PendingDispatch>>,
    /// Hierarchical only: forwarded bundles awaiting their upstream
    /// arrival event, per edge, as `(arrival clock, entries)`.
    upstream: BTreeMap<usize, Vec<UpstreamBundle>>,
    /// Hierarchical only: bundles in the server buffer (the unit the
    /// flush threshold counts on a two-tier topology).
    bundles: usize,
    /// Edge flushes since the last aggregation (ledger reporting).
    edge_flushes: usize,
}

impl<S> AsyncState<S> {
    /// The server state a dispatch at `version` trains against.
    fn state_of(&self, version: usize) -> &S {
        if version == self.version {
            &self.core.state
        } else {
            &self
                .past_states
                .iter()
                .find(|(pv, _)| *pv == version)
                .expect("referenced past state is stored")
                .1
        }
    }

    /// Whether any pending dispatch — in flight, edge-buffered, or
    /// forwarded upstream — still trains against `version`. (The server
    /// buffer is always drained whole at flush, so it never appears
    /// here.)
    fn references_version(&self, version: usize) -> bool {
        self.in_flight.iter().any(|d| d.version == version)
            || self
                .edge_buffers
                .values()
                .flatten()
                .any(|d| d.version == version)
            || self
                .upstream
                .values()
                .flatten()
                .any(|(_, es)| es.iter().any(|d| d.version == version))
    }
}

impl<T: ScheduledTrainer> AsyncScheduler<T> {
    /// Creates an asynchronous scheduler with the communication plane
    /// disabled (every dispatch ships the whole payload — the historical
    /// behavior).
    ///
    /// # Panics
    ///
    /// Panics if `acfg` is invalid.
    pub fn new(trainer: T, acfg: AsyncConfig) -> Self {
        AsyncScheduler::with_comm(trainer, acfg, CommConfig::default())
    }

    /// Creates an asynchronous scheduler with an explicit
    /// communication-plane policy (delta downloads against per-client
    /// cached versions).
    ///
    /// # Panics
    ///
    /// Panics if `acfg` or `comm` is invalid.
    pub fn with_comm(trainer: T, acfg: AsyncConfig, comm: CommConfig) -> Self {
        AsyncScheduler::with_topology(trainer, acfg, comm, TopologyConfig::single())
    }

    /// Creates an asynchronous scheduler over an explicit aggregation
    /// topology. With [`TopologyConfig::single`] this is exactly
    /// [`AsyncScheduler::with_comm`]; a hierarchical config interposes
    /// edge aggregators that bundle cohort updates before the server
    /// buffer sees them.
    ///
    /// # Panics
    ///
    /// Panics if `acfg`, `comm`, or `topo` is invalid.
    pub fn with_topology(
        trainer: T,
        acfg: AsyncConfig,
        comm: CommConfig,
        topo: TopologyConfig,
    ) -> Self {
        acfg.validate();
        comm.validate();
        topo.validate();
        AsyncScheduler {
            trainer,
            acfg,
            comm,
            topo,
            trace: None,
        }
    }

    /// Creates an asynchronous scheduler with an availability-trace plan
    /// on top of the full stack: dispatch eligibility is gated by the
    /// plan's diurnal curves and outage windows (lost dispatches drain
    /// through the existing timeout path), and costing picks up thermal
    /// throttling and the timing adversary. With `trace = None` this is
    /// exactly [`AsyncScheduler::with_topology`].
    ///
    /// # Panics
    ///
    /// Panics if `acfg`, `comm`, `topo`, or `trace` is invalid.
    pub fn with_trace(
        trainer: T,
        acfg: AsyncConfig,
        comm: CommConfig,
        topo: TopologyConfig,
        trace: Option<crate::trace::TracePlan>,
    ) -> Self {
        if let Some(plan) = &trace {
            plan.validate();
        }
        let mut s = AsyncScheduler::with_topology(trainer, acfg, comm, topo);
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

    /// Drives to `env.cfg.rounds` aggregations and wraps up the outcome.
    fn finish(
        &self,
        env: &FlEnv,
        mut st: AsyncState<T::ServerState>,
        mut sink: Sink<'_, AsyncAggRecord>,
    ) -> AsyncOutcome<T::ServerState> {
        let stop = AsyncStopPoint::after_agg(env.cfg.rounds);
        self.drive(env, &mut st, stop, &mut sink);
        self.stack().finish(st.core, st.ledger, st.last_agg_clock)
    }

    /// Runs `env.cfg.rounds` aggregations.
    pub fn run(&self, env: &FlEnv) -> AsyncOutcome<T::ServerState> {
        self.finish(env, self.fresh_state(env), None)
    }

    /// Like [`AsyncScheduler::run`], but streams every ledger record to
    /// `sink` the moment it is recorded instead of accumulating the
    /// ledger in memory. The returned outcome carries an **empty**
    /// ledger: on a 100k-client fleet the ledger is the last O(run
    /// length) allocation, and streaming it out is what keeps resident
    /// memory bounded by active dispatches.
    pub fn run_streamed(
        &self,
        env: &FlEnv,
        sink: &mut dyn FnMut(&AsyncAggRecord),
    ) -> AsyncOutcome<T::ServerState> {
        self.finish(env, self.fresh_state(env), Some(sink))
    }

    /// Runs to `stop` and returns a resumable mid-flight checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if `stop.buffered >= buffer_k` (the buffer would have
    /// flushed before reaching it).
    pub fn run_until(&self, env: &FlEnv, stop: AsyncStopPoint) -> AsyncCheckpoint<T::ServerState> {
        let min_k = self
            .acfg
            .adaptive_buffer
            .map_or(self.acfg.buffer_k, |(k_min, _)| k_min);
        assert!(
            stop.buffered < min_k,
            "cannot stop at {} buffered updates: the buffer flushes at {}",
            stop.buffered,
            min_k
        );
        let stop = AsyncStopPoint {
            aggregations: stop.aggregations.min(env.cfg.rounds),
            ..stop
        };
        let mut st = self.fresh_state(env);
        self.drive(env, &mut st, stop, &mut None);
        let (comm, topo, byz, trace, quant) = self.stack().keys(&st.core);
        AsyncCheckpoint {
            version: st.version,
            clock_s: st.timeline.clock_s(),
            last_agg_clock_s: st.last_agg_clock,
            dispatch_count: st.timeline.dispatch_count(),
            seed: env.cfg.seed,
            acfg: self.acfg,
            algorithm: self.trainer.name().to_string(),
            n_clients: env.cfg.n_clients,
            rounds: env.cfg.rounds,
            state: st.core.state,
            ledger: st.ledger,
            buffer: st.buffer,
            in_flight: st.in_flight,
            dispatched_at_version: st.timeline.dispatched_ids(),
            past_states: st.past_states,
            comm,
            cur_k: self.acfg.adaptive_buffer.map(|_| st.cur_k),
            timed_out: st.timed_out,
            topo,
            edge_buffers: st.edge_buffers.into_iter().collect(),
            upstream: st.upstream.into_iter().collect(),
            bundles: st.bundles,
            edge_flushes: st.edge_flushes,
            byz,
            trace,
            quant,
        }
    }

    /// Resumes from a checkpoint and finishes the remaining
    /// aggregations, bit-identically to an uninterrupted run.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint disagrees with the resuming environment
    /// or scheduler — each mismatch message names the offending
    /// `AsyncCheckpoint` field (`acfg`, `seed`, `algorithm`, `n_clients`,
    /// `rounds`, or a plane key).
    pub fn resume(
        &self,
        env: &FlEnv,
        ckpt: &AsyncCheckpoint<T::ServerState>,
    ) -> AsyncOutcome<T::ServerState> {
        assert_eq!(
            ckpt.acfg, self.acfg,
            "AsyncCheckpoint field `acfg`: checkpoint was taken under a different async policy"
        );
        let saved = Saved {
            ty: "AsyncCheckpoint",
            seed: ckpt.seed,
            algorithm: &ckpt.algorithm,
            n_clients: ckpt.n_clients,
            rounds: ckpt.rounds,
            state: &ckpt.state,
            comm: ckpt.comm.as_ref(),
            topo: ckpt.topo,
            byz: ckpt.byz,
            trace: ckpt.trace.as_ref(),
            quant: ckpt.quant.as_ref(),
        };
        let core = self.stack().restore(env, saved);
        let timeline = AsyncTimeline::restore(
            env.cfg.seed,
            env.cfg.n_clients,
            self.acfg.concurrency,
            ckpt.clock_s,
            ckpt.dispatch_count,
            &ckpt.dispatched_at_version,
            &ckpt
                .in_flight
                .iter()
                .map(|d| (d.client, d.finish_s))
                .collect::<Vec<_>>(),
        );
        // Pending dispatches are pure descriptors; their updates are
        // re-derived at flush time like in the uninterrupted run, so
        // nothing needs retraining here.
        let mut st = AsyncState {
            core,
            version: ckpt.version,
            timeline,
            buffer: ckpt.buffer.clone(),
            in_flight: ckpt.in_flight.clone(),
            past_states: ckpt.past_states.clone(),
            ledger: ckpt.ledger.clone(),
            last_agg_clock: ckpt.last_agg_clock_s,
            cur_k: ckpt.cur_k.unwrap_or_else(|| self.acfg.initial_k()),
            timed_out: ckpt.timed_out,
            edge_buffers: ckpt.edge_buffers.iter().cloned().collect(),
            upstream: ckpt.upstream.iter().cloned().collect(),
            bundles: ckpt.bundles,
            edge_flushes: ckpt.edge_flushes,
        };
        // Forwarded bundles were mid-flight on the backhaul at capture
        // time; their arrival events live only in the event heap, so
        // re-schedule them (synthetic ids never hold a slot).
        for (e, bundles) in &st.upstream {
            for (arrive, _) in bundles {
                st.timeline.schedule_finish(env.cfg.n_clients + e, *arrive);
            }
        }
        self.finish(env, st, None)
    }

    fn fresh_state(&self, env: &FlEnv) -> AsyncState<T::ServerState> {
        self.acfg.validate();
        assert!(
            self.acfg.concurrency <= env.cfg.n_clients,
            "concurrency cannot exceed the fleet"
        );
        assert!(
            self.acfg.buffer_k <= env.cfg.n_clients,
            "buffer_k above n_clients deadlocks: at most one update per client per version"
        );
        if let Some((_, k_max)) = self.acfg.adaptive_buffer {
            assert!(
                k_max <= env.cfg.n_clients,
                "adaptive k_max above n_clients deadlocks: at most one update per client per version"
            );
        }
        let mut core = self.stack().fresh(env);
        core.comm.note_version(0, &core.state);
        AsyncState {
            core,
            version: 0,
            timeline: AsyncTimeline::new(env.cfg.seed, env.cfg.n_clients, self.acfg.concurrency),
            buffer: Vec::new(),
            in_flight: Vec::new(),
            past_states: Vec::new(),
            ledger: Vec::new(),
            last_agg_clock: 0.0,
            cur_k: self.acfg.initial_k(),
            timed_out: 0,
            edge_buffers: BTreeMap::new(),
            upstream: BTreeMap::new(),
            bundles: 0,
            edge_flushes: 0,
        }
    }

    /// The event loop: arm free slots, pop the next finish, buffer it,
    /// flush at `K` — until `stop`. Arming happens at the top of each
    /// iteration (the clock only advances inside `next_finish`, so this
    /// is the same virtual instant as the event that freed the slot);
    /// once the stop point is reached no further clients are dispatched,
    /// so a plain `run` never trains updates it would then discard. A
    /// resumed run re-arms on its first iteration from the checkpointed
    /// `dispatch_count`, reproducing the exact dispatch stream.
    fn drive(
        &self,
        env: &FlEnv,
        st: &mut AsyncState<T::ServerState>,
        stop: AsyncStopPoint,
        sink: &mut Sink<'_, AsyncAggRecord>,
    ) {
        let n_clients = env.cfg.n_clients;
        while st.version < stop.aggregations
            || (st.version == stop.aggregations && st.buffer.len() < stop.buffered)
        {
            self.arm(env, st);
            let Some((time, ev_id)) = st.timeline.next_finish() else {
                // Nothing in flight and nothing armable: every remaining
                // eligible dispatch of this version was lost (or is
                // stranded in a partially-filled edge buffer). Partial
                // progress is the only way forward — first drain the
                // edges, then flush whatever reached the server (the
                // version bump re-arms the whole fleet).
                if st.buffer.is_empty() {
                    if st.edge_buffers.values().any(|b| !b.is_empty()) {
                        let edges: Vec<usize> = st.edge_buffers.keys().copied().collect();
                        for e in edges {
                            self.flush_edge(env, st, e);
                        }
                        continue;
                    }
                    panic!(
                        "async run starved at version {}: every dispatched client was lost \
                         and the buffer is empty",
                        st.version
                    );
                }
                self.aggregate(env, st, sink);
                continue;
            };
            if ev_id >= n_clients {
                // A forwarded edge bundle reached the server.
                let edge = ev_id - n_clients;
                let q = st.upstream.get_mut(&edge).expect("arrival has a bundle");
                let pos = q
                    .iter()
                    .position(|(arrive, _)| *arrive == time)
                    .expect("arrival time matches a forwarded bundle");
                let (_, entries) = q.remove(pos);
                if q.is_empty() {
                    st.upstream.remove(&edge);
                }
                st.buffer.extend(entries);
                st.bundles += 1;
                if st.bundles >= st.cur_k {
                    self.aggregate(env, st, sink);
                }
                continue;
            }
            let client = ev_id;
            let idx = st
                .in_flight
                .iter()
                .position(|d| d.client == client)
                .expect("finished client is in flight");
            let entry = st.in_flight.swap_remove(idx);
            debug_assert_eq!(entry.finish_s, time);
            if entry.lost {
                // Reclaim the slot (next_finish already freed it) and
                // discard the update. An unavailable client never
                // received the download, so its cache stays honest; an
                // outage or timeout leaves the server unsure what the
                // client holds, so its cache entry is invalidated.
                match entry.cause {
                    Some(TraceLoss::Unavailable) => st.core.trace.unavailable += 1,
                    Some(TraceLoss::Outage) => {
                        self.stack()
                            .lost(&mut st.core, entry.client, QuantLoss::Outage);
                        st.core.trace.outage_lost += 1;
                    }
                    None => {
                        self.stack()
                            .lost(&mut st.core, entry.client, QuantLoss::Timeout);
                        st.timed_out += 1;
                    }
                }
                continue;
            }
            if self.topo.is_hierarchical() {
                let edge = self.topo.cohort_of(env.cfg.seed, entry.client);
                let buf = st.edge_buffers.entry(edge).or_default();
                buf.push(entry);
                if buf.len() >= self.topo.edge_flush_k {
                    self.flush_edge(env, st, edge);
                }
            } else {
                st.buffer.push(entry);
                if st.buffer.len() >= st.cur_k {
                    self.aggregate(env, st, sink);
                }
            }
        }
    }

    /// Forwards edge `e`'s accumulated cohort updates upstream as one
    /// partial-sum bundle: the bundle arrives at the server after a
    /// backhaul hop costed on the partial sum's wire size (the densest
    /// member update — a sum of cohort updates is one model-shaped
    /// vector, not their concatenation). Arrival is a synthetic timeline
    /// event with id `n_clients + e`.
    fn flush_edge(&self, env: &FlEnv, st: &mut AsyncState<T::ServerState>, e: usize) {
        let Some(entries) = st.edge_buffers.remove(&e) else {
            return;
        };
        if entries.is_empty() {
            return;
        }
        let bundle_bytes = entries
            .iter()
            .map(|d| {
                d.payload.map_or_else(
                    || {
                        self.trainer
                            .payload_spec(env, d.version, d.client)
                            .materialize()
                            .up_bytes
                    },
                    |p| p.up_bytes,
                )
            })
            .max()
            .expect("non-empty bundle");
        let arrive = st.timeline.clock_s() + self.topo.uplink.forward_s(bundle_bytes);
        st.timeline.schedule_finish(env.cfg.n_clients + e, arrive);
        st.upstream.entry(e).or_default().push((arrive, entries));
        st.edge_flushes += 1;
    }

    /// Fills free slots: picks eligible clients, plans each dispatch's
    /// payload against the communication plane, and costs + schedules the
    /// dispatches on their currently-degraded devices. The local training
    /// itself runs lazily at flush time.
    ///
    /// A dispatch is **lost** when the client's dropout draw fires or its
    /// round trip exceeds the server timeout; its event is scheduled at
    /// the timeout instant (slot reclaim) instead of the finish. A
    /// dropped client never materializes the download, so its cache entry
    /// is not advanced; a merely-slow one did, but the server invalidates
    /// it at the timeout anyway — it cannot distinguish the two.
    fn arm(&self, env: &FlEnv, st: &mut AsyncState<T::ServerState>) {
        let picked = st.timeline.pick_dispatches();
        let (stack, cfg) = (self.stack(), &env.cfg);
        let v = st.version;
        let clock = st.timeline.clock_s();
        for k in picked {
            // A trace-gated client never receives anything, so its
            // dispatch is an immediately-reclaimed lost event (the slot
            // recycles at this very instant, keeping the picker stream
            // deterministic).
            if let Some(cause) = stack.gate(env, v, k, clock) {
                st.timeline.schedule_finish(k, clock);
                st.in_flight.push(PendingDispatch {
                    client: k,
                    version: v,
                    dispatch_s: clock,
                    finish_s: clock,
                    transfer_s: 0.0,
                    payload: None,
                    lost: true,
                    cause: Some(cause),
                    throttled: false,
                });
                continue;
            }
            let dev = sample_availability(env, v, k);
            let p = stack.plan(env, &mut st.core, v, k, &dev, clock);
            let dropped = self.acfg.dropout_p > 0.0
                && env.client_rng(v, k, SALT_ASYNC_DROP).gen::<f64>() < self.acfg.dropout_p;
            let mut lost = dropped || self.acfg.timeout_s.is_some_and(|to| p.lat.total() > to);
            let mut cause = None;
            let mut finish_s = if lost {
                clock
                    + self
                        .acfg
                        .timeout_s
                        .expect("lost dispatches imply a timeout")
            } else {
                clock + p.lat.total()
            };
            // A correlated outage striking mid-flight kills the round
            // trip at the window onset — the server reclaims the slot
            // then, not at the (later) natural finish.
            if !lost {
                if let Some(plan) = &self.trace {
                    let end = clock + p.lat.total();
                    if let Some(onset) = plan.first_outage_in(cfg.seed, &self.topo, k, clock, end) {
                        lost = true;
                        cause = Some(TraceLoss::Outage);
                        finish_s = onset;
                    }
                }
            }
            // A coin-dropped client never started: no cache row, no
            // thermal accrual.
            if !dropped {
                stack.delivered(env, &mut st.core, v, k, &p, clock);
            }
            st.timeline.schedule_finish(k, finish_s);
            st.in_flight.push(PendingDispatch {
                client: k,
                version: v,
                dispatch_s: clock,
                finish_s,
                transfer_s: p.lat.transfer_s,
                payload: Some(p.payload),
                lost,
                cause,
                throttled: p.throttled,
            });
        }
    }

    /// Flushes the buffer: trains the buffered dispatches (in parallel,
    /// each against the snapshot of its dispatch version — updates are
    /// pure functions of `(version, client)`), merges them into the
    /// global model with staleness-discounted FedAvg weights, and
    /// records the aggregation.
    fn aggregate(
        &self,
        env: &FlEnv,
        st: &mut AsyncState<T::ServerState>,
        sink: &mut Sink<'_, AsyncAggRecord>,
    ) {
        let stack = self.stack();
        let v = st.version;
        let mut entries = std::mem::take(&mut st.buffer);
        // Deterministic merge order, independent of arrival order among
        // equal timestamps: ascending (client, dispatch version) — which
        // in the degenerate synchronous config is exactly the ascending
        // client-id order of the lockstep loops.
        entries.sort_by_key(|d| (d.client, d.version));
        let n = entries.len();
        let jobs: Vec<(usize, usize)> = entries.iter().map(|d| (d.version, d.client)).collect();
        let results = stack.train(env, &jobs, |version| st.state_of(version));
        let stalenesses: Vec<usize> = entries.iter().map(|d| v - d.version).collect();
        let base: Vec<f32> = entries
            .iter()
            .map(|d| env.client_weight(d.client))
            .collect();
        let weights: Vec<f32> = base
            .iter()
            .zip(&stalenesses)
            .map(|(&w, &s)| w * staleness_weight(s, self.acfg.staleness_exp))
            .collect();
        let train_loss = results.iter().map(|(_, l)| *l).sum::<f32>() / n as f32;
        let mean_transfer_s = entries.iter().map(|d| d.transfer_s).sum::<f64>() / n as f64;
        // Wire-traffic tally of the merged dispatches. Entries loaded
        // from pre-communication-plane checkpoints carry no payload; they
        // were full-payload dispatches, re-derivable from the trainer.
        let mut down_bytes = 0u64;
        let mut up_bytes = 0u64;
        let mut delta_merged = 0usize;
        for d in &entries {
            let p = d.payload.unwrap_or_else(|| {
                self.trainer
                    .payload_spec(env, d.version, d.client)
                    .materialize()
            });
            down_bytes += p.down_bytes;
            up_bytes += p.up_bytes;
            delta_merged += p.is_delta() as usize;
        }
        let mean_staleness = stalenesses.iter().sum::<usize>() as f32 / n as f32;
        let max_staleness = stalenesses.iter().copied().max().unwrap_or(0);
        let participation_weight = base.iter().sum::<f32>();
        let weight_retained = weights.iter().sum::<f32>() / participation_weight;
        let clients: Vec<usize> = entries.iter().map(|d| d.client).collect();
        let updates: Vec<(usize, T::Update)> = entries
            .iter()
            .zip(results)
            .map(|(d, (u, _))| (d.client, u))
            .collect();
        // The state is about to change; snapshot it while pending
        // dispatches (in flight, edge-buffered, or forwarded upstream)
        // trained against it still need it for their flush (and for
        // checkpoints).
        if st.references_version(v) {
            st.past_states.push((v, st.core.state.clone()));
        }
        self.trainer
            .merge_weighted(env, &mut st.core.state, v, updates, &weights);
        // Drain the robust rule's evidence trail for this flush — which
        // staleness-discounted updates it filtered or clipped.
        let robust = self.trainer.take_robust_stats();
        st.version += 1;
        st.timeline.bump_version();
        // The new version is what subsequent dispatches download; retain
        // its snapshot for future deltas.
        st.core.comm.note_version(st.version, &st.core.state);
        // GC: the buffer is empty here, so the remaining pending
        // dispatches are the only referents of past versions.
        let keep: Vec<usize> = st
            .past_states
            .iter()
            .map(|(pv, _)| *pv)
            .filter(|&pv| st.references_version(pv))
            .collect();
        st.past_states.retain(|(pv, _)| keep.contains(pv));
        let (val_clean, val_adv) = stack.eval(env, &mut st.core, v);
        let clock = st.timeline.clock_s();
        let flush_k = self.acfg.adaptive_buffer.map(|_| st.cur_k);
        let throttled = entries.iter().filter(|d| d.throttled).count();
        let rec = AsyncAggRecord {
            agg: v,
            merged: n,
            clients,
            mean_staleness,
            max_staleness,
            weight_retained,
            participation_weight,
            train_loss,
            val_clean,
            val_adv,
            mean_transfer_s,
            round_time_s: clock - st.last_agg_clock,
            clock_s: clock,
            down_bytes,
            up_bytes,
            delta_merged,
            timed_out: st.timed_out,
            flush_k,
            bundles: st.bundles,
            edge_flushes: st.edge_flushes,
            filtered: robust.filtered,
            clip_applied: robust.clip_applied,
            unavailable: st.core.trace.unavailable,
            outage_lost: st.core.trace.outage_lost,
            throttled,
        };
        emit(sink, &mut st.ledger, rec);
        st.last_agg_clock = clock;
        st.timed_out = 0;
        st.bundles = 0;
        st.edge_flushes = 0;
        st.core.trace.unavailable = 0;
        st.core.trace.outage_lost = 0;
        stack.prune(env, &mut st.core, clock);
        // Rescale the flush threshold from the staleness just observed.
        if let Some((k_min, k_max)) = self.acfg.adaptive_buffer {
            st.cur_k = adaptive_k(self.acfg.buffer_k, mean_staleness, k_min, k_max);
        }
    }
}

impl<T: ScheduledTrainer> crate::engine::FlAlgorithm for AsyncScheduler<T> {
    fn name(&self) -> &'static str {
        self.trainer.name()
    }

    fn run(&self, env: &FlEnv) -> FlOutcome {
        AsyncScheduler::run(self, env).into_fl_outcome()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staleness_weight_is_exact_fedavg_at_zero_exponent() {
        for s in 0..50 {
            assert_eq!(staleness_weight(s, 0.0), 1.0);
        }
    }

    #[test]
    fn staleness_weight_decays() {
        assert_eq!(staleness_weight(0, 1.0), 1.0);
        assert_eq!(staleness_weight(1, 1.0), 0.5);
        assert_eq!(staleness_weight(3, 1.0), 0.25);
        let half = staleness_weight(1, 0.5);
        assert!((half - 0.70710677).abs() < 1e-6);
        // Monotone in staleness for positive exponents.
        for s in 0..10 {
            assert!(staleness_weight(s + 1, 0.7) < staleness_weight(s, 0.7));
        }
    }

    #[test]
    fn timeline_dispatches_each_client_once_per_version() {
        let mut tl = AsyncTimeline::new(7, 4, 4);
        let first = tl.pick_dispatches();
        let mut sorted = first.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        for (i, &k) in first.iter().enumerate() {
            tl.schedule_finish(k, 1.0 + i as f64);
        }
        // A finished client frees its slot but stays ineligible until the
        // version bumps.
        let (t, k) = tl.next_finish().unwrap();
        assert_eq!(t, 1.0);
        assert_eq!(k, first[0]);
        assert!(tl.pick_dispatches().is_empty());
        tl.bump_version();
        assert_eq!(tl.pick_dispatches(), vec![k]);
    }

    #[test]
    fn timeline_picks_are_deterministic() {
        let run = || {
            let mut tl = AsyncTimeline::new(123, 8, 3);
            let mut order = tl.pick_dispatches();
            for (i, &k) in order.iter().enumerate() {
                tl.schedule_finish(k, (i + 1) as f64);
            }
            tl.bump_version();
            while let Some((t, _)) = tl.next_finish() {
                let picked = tl.pick_dispatches();
                for &k in &picked {
                    tl.schedule_finish(k, t + 10.0);
                }
                order.extend(picked);
                if order.len() > 6 {
                    break;
                }
            }
            order
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn timeline_event_order_breaks_ties_by_client() {
        let mut tl = AsyncTimeline::new(0, 3, 3);
        for &k in &tl.pick_dispatches() {
            tl.schedule_finish(k, 2.5);
        }
        let mut seen = Vec::new();
        while let Some((_, k)) = tl.next_finish() {
            seen.push(k);
        }
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn timeline_restore_round_trips() {
        let mut tl = AsyncTimeline::new(9, 5, 2);
        let picked = tl.pick_dispatches();
        for &k in &picked {
            tl.schedule_finish(k, 3.0 + k as f64);
        }
        tl.next_finish().unwrap();
        let in_flight: Vec<(usize, f64)> = vec![(picked[1], 3.0 + picked[1] as f64)];
        let dispatched: Vec<usize> = tl.dispatched_ids();
        let restored = AsyncTimeline::restore(
            9,
            5,
            2,
            tl.clock_s(),
            tl.dispatch_count(),
            &dispatched,
            &in_flight,
        );
        assert_eq!(restored.clock_s(), tl.clock_s());
        assert_eq!(restored.dispatch_count(), tl.dispatch_count());
        assert_eq!(restored.in_flight(), tl.in_flight());
        let mut a = tl.clone();
        let mut b = restored.clone();
        assert_eq!(a.pick_dispatches(), b.pick_dispatches());
    }

    #[test]
    #[should_panic(expected = "buffer_k")]
    fn rejects_zero_buffer() {
        AsyncConfig {
            buffer_k: 0,
            ..AsyncConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "concurrency")]
    fn rejects_zero_concurrency() {
        AsyncConfig {
            concurrency: 0,
            ..AsyncConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "staleness_exp")]
    fn rejects_negative_exponent() {
        AsyncConfig {
            staleness_exp: -0.1,
            ..AsyncConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "requires timeout_s")]
    fn rejects_dropout_without_timeout() {
        AsyncConfig {
            dropout_p: 0.1,
            ..AsyncConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "k_min <= k_max")]
    fn rejects_inverted_adaptive_bounds() {
        AsyncConfig {
            adaptive_buffer: Some((4, 2)),
            ..AsyncConfig::default()
        }
        .validate();
    }

    #[test]
    fn dropout_with_timeout_validates() {
        AsyncConfig {
            dropout_p: 0.3,
            timeout_s: Some(1.0),
            adaptive_buffer: Some((1, 4)),
            ..AsyncConfig::default()
        }
        .validate();
    }

    #[test]
    fn adaptive_k_scales_with_staleness_and_clamps() {
        // Zero staleness returns the configured threshold.
        assert_eq!(adaptive_k(2, 0.0, 1, 8), 2);
        // round(2 · 1.5) = 3, round(2 · 2.6) = 5.
        assert_eq!(adaptive_k(2, 0.5, 1, 8), 3);
        assert_eq!(adaptive_k(2, 1.6, 1, 8), 5);
        // Bounds bind on both sides.
        assert_eq!(adaptive_k(2, 10.0, 1, 4), 4);
        assert_eq!(adaptive_k(1, 0.0, 2, 4), 2);
    }

    #[test]
    fn async_config_serde_omits_inactive_fields() {
        // The legacy three-field shape round-trips byte-identically…
        let legacy = AsyncConfig {
            concurrency: 4,
            buffer_k: 2,
            staleness_exp: 0.5,
            ..AsyncConfig::default()
        };
        let json = serde_json::to_string(&legacy).unwrap();
        assert!(!json.contains("dropout_p"));
        assert!(!json.contains("timeout_s"));
        assert!(!json.contains("adaptive_buffer"));
        assert_eq!(serde_json::from_str::<AsyncConfig>(&json).unwrap(), legacy);
        // …and the extended shape round-trips with its fields.
        let full = AsyncConfig {
            dropout_p: 0.25,
            timeout_s: Some(2.5),
            adaptive_buffer: Some((1, 6)),
            ..legacy
        };
        let v = full.serialize();
        assert_eq!(AsyncConfig::deserialize(&v).unwrap(), full);
    }

    #[test]
    fn pending_dispatch_serde_omits_trivial_fields() {
        let legacy = PendingDispatch {
            client: 3,
            version: 1,
            dispatch_s: 0.5,
            finish_s: 1.5,
            transfer_s: 0.25,
            payload: None,
            lost: false,
            cause: None,
            throttled: false,
        };
        let json = serde_json::to_string(&legacy).unwrap();
        assert!(!json.contains("payload"));
        assert!(!json.contains("lost"));
        assert!(!json.contains("cause"));
        assert!(!json.contains("throttled"));
        assert_eq!(
            serde_json::from_str::<PendingDispatch>(&json).unwrap(),
            legacy
        );
        let live = PendingDispatch {
            payload: Some(Payload::delta(0, 10, 100)),
            lost: true,
            cause: Some(crate::trace::TraceLoss::Outage),
            throttled: true,
            ..legacy
        };
        let v = live.serialize();
        assert_eq!(PendingDispatch::deserialize(&v).unwrap(), live);
    }
}
