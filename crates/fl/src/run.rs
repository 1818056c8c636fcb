//! The run core both schedulers sit on: the state every run carries and
//! the one spelling of each plane stage.
//!
//! ```text
//!  fresh | restore ──▶ Core { server state, CommPlane, TraceState }
//!
//!  per dispatch (version v, client k, virtual clock c)
//!    gate       trace: diurnal curve, dark outage window ─▶ lost before download
//!    plan       payload_spec ▶ comm delta-vs-full ▶ quant wire size
//!               ▶ hwsim round trip ▶ trace throttle / timing adversary
//!    delivered  comm cache row advances, thermal streak accrues
//!    lost       comm cache row dropped, quant residual dropped (with cause)
//!
//!  per barrier (round close | buffer flush)
//!    train      cohort-grouped fan-out over (version, client) jobs
//!    merge      the engine's own weights (FedAvg | staleness-discounted)
//!    eval       cadence ▶ val_clean / val_adv
//!    prune      cooled thermal rows dropped
//!
//!  keys ──▶ the five optional checkpoint keys (comm, topo, byz, trace, quant)
//! ```
//!
//! [`crate::sched`] and [`crate::async_sched`] own *when* each stage runs
//! — selection, the event queue, dropout and timeout draws, the barrier —
//! and nothing about *what* a stage does. The order is theirs too: the
//! round scheduler plans a whole cohort against the cache table as the
//! round found it and advances the table afterwards, the async one
//! advances it per dispatch (with a bounded `cache_rows` the LRU victim
//! depends on that order).

use crate::byz::ByzPolicy;
use crate::comm::{CommConfig, CommPlane, CommState};
use crate::engine::FlEnv;
use crate::metrics::{FlOutcome, RoundRecord};
use crate::quant::{QuantLoss, QuantState};
use crate::sched::ScheduledTrainer;
use crate::topology::TopologyConfig;
use crate::trace::{TraceCheckpoint, TraceLoss, TracePlan, TraceState};
use fp_hwsim::{ClientLatency, DeviceSample, Payload};
use fp_nn::CascadeModel;
use serde::Serialize;
use std::cmp::Ordering;

// ------------------------------------------------------------------ events

/// What a virtual-time event is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum EventKind {
    /// A client finished its local training (or, on the async timeline,
    /// a synthetic id's edge bundle arrived). Ranked before `Deadline` so
    /// a client finishing exactly at the deadline still counts.
    Finish { client: usize },
    /// The straggler deadline fired.
    Deadline,
}

/// One event of a round's queue or of the continuous async timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Event {
    pub time: f64,
    pub kind: EventKind,
}

impl Event {
    /// Ordering key: time (finite, non-negative — IEEE bit patterns
    /// order correctly), then kind rank (finishes before deadlines), then
    /// client id — total and deterministic.
    fn key(&self) -> (u64, u8, usize) {
        let (rank, client) = match self.kind {
            EventKind::Finish { client } => (0, client),
            EventKind::Deadline => (1, 0),
        };
        (self.time.to_bits(), rank, client)
    }
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

// ----------------------------------------------------------------- outcome

/// The result of a scheduled run: final model, final server state, and
/// the ledger (`R` is the engine's record type). Named through the
/// aliases [`SchedOutcome`](crate::SchedOutcome) and
/// [`AsyncOutcome`](crate::AsyncOutcome).
pub struct Outcome<S, R> {
    /// Final deployable global model (extracted from the state).
    pub model: CascadeModel,
    /// Final server state.
    pub state: S,
    /// Per-round / per-aggregation ledger (empty after a streamed run).
    pub ledger: Vec<R>,
    /// Virtual clock of the last record — kept beside the ledger because
    /// a streamed run returns none.
    clock_s: f64,
}

impl<S, R> Outcome<S, R> {
    /// Total virtual training time.
    pub fn virtual_time_s(&self) -> f64 {
        self.clock_s
    }

    /// The ledger as a JSON document.
    pub fn ledger_json(&self) -> String
    where
        R: Serialize,
    {
        serde_json::to_string(&self.ledger).expect("ledger serializes")
    }

    /// Converts to the generic outcome shape (one record per round or
    /// aggregation).
    pub fn into_fl_outcome(self) -> FlOutcome
    where
        for<'a> RoundRecord: From<&'a R>,
    {
        FlOutcome {
            history: self.ledger.iter().map(RoundRecord::from).collect(),
            model: self.model,
        }
    }
}

/// Where ledger records go: `None` appends to the in-memory ledger (what
/// every outcome and checkpoint is built on); a sink receives each record
/// as it is born and the ledger stays empty, which keeps fleet-scale runs
/// O(active dispatches) in memory.
pub(crate) type Sink<'a, R> = Option<&'a mut dyn FnMut(&R)>;

pub(crate) fn emit<R>(sink: &mut Sink<'_, R>, ledger: &mut Vec<R>, rec: R) {
    match sink {
        Some(sink) => sink(&rec),
        None => ledger.push(rec),
    }
}

// ------------------------------------------------------------------- state

/// What a scheduler is built from, borrowed for the length of one call.
pub(crate) struct Stack<'a, T> {
    pub trainer: &'a T,
    pub comm: CommConfig,
    pub topo: &'a TopologyConfig,
    pub trace: Option<&'a TracePlan>,
}

/// The run state both engines carry: server state plus the two planes
/// that keep state on the server side (the quantization plane keeps its
/// own inside the trainer wrapper).
pub(crate) struct Core<S> {
    pub state: S,
    pub comm: CommPlane<S>,
    pub trace: TraceState,
}

/// The checkpoint fields both checkpoint types share, borrowed for
/// [`Stack::restore`]; `ty` is the checkpoint's type name as the
/// mismatch messages spell it.
pub(crate) struct Saved<'a, S> {
    pub ty: &'static str,
    pub seed: u64,
    pub algorithm: &'a str,
    pub n_clients: usize,
    pub rounds: usize,
    pub state: &'a S,
    pub comm: Option<&'a CommState<S>>,
    pub topo: Option<TopologyConfig>,
    pub byz: Option<ByzPolicy>,
    pub trace: Option<&'a TraceCheckpoint>,
    pub quant: Option<&'a QuantState>,
}

/// The five optional checkpoint keys, in the order [`Stack::keys`]
/// returns them.
pub(crate) type PlaneKeys<S> = (
    Option<CommState<S>>,
    Option<TopologyConfig>,
    Option<ByzPolicy>,
    Option<TraceCheckpoint>,
    Option<QuantState>,
);

/// One planned dispatch: what ships and what it costs.
pub(crate) struct Planned {
    /// Shape fingerprint of the payload (what the cache row records).
    pub shape_id: u64,
    pub payload: Payload,
    pub lat: ClientLatency,
    /// Whether the trace plane scaled `lat`.
    pub throttled: bool,
}

// ------------------------------------------------------------------ stages

impl<T: ScheduledTrainer> Stack<'_, T> {
    /// A cold run. Error-feedback residuals are run state held by the
    /// trainer wrapper and a scheduler can be run repeatedly, so every
    /// fresh run resets that plane too.
    pub fn fresh(&self, env: &FlEnv) -> Core<T::ServerState> {
        self.trainer.reset_quant();
        Core {
            state: self.trainer.init(env),
            comm: CommPlane::new(self.comm, env.cfg.n_clients),
            trace: TraceState::new(),
        }
    }

    /// The plane keys of a checkpoint. Each is `None` — and then absent
    /// from the JSON, which keeps older checkpoints byte-identical —
    /// while its plane is off (flat topology, trivial Byzantine policy).
    pub fn keys(&self, core: &Core<T::ServerState>) -> PlaneKeys<T::ServerState> {
        (
            core.comm.to_state(),
            self.topo.is_hierarchical().then_some(*self.topo),
            self.trainer.byz_policy(),
            self.trace.map(|plan| core.trace.to_checkpoint(plan)),
            self.trainer.quant_state(),
        )
    }

    /// Rebuilds the run state from a checkpoint.
    ///
    /// # Panics
    ///
    /// Panics when the checkpoint disagrees with the resuming
    /// environment or stack; the message names the checkpoint type and
    /// the offending field.
    pub fn restore(&self, env: &FlEnv, saved: Saved<'_, T::ServerState>) -> Core<T::ServerState> {
        let ty = saved.ty;
        assert_eq!(
            saved.seed, env.cfg.seed,
            "{ty} field `seed`: checkpoint was taken under a different master seed"
        );
        assert_eq!(
            saved.algorithm,
            self.trainer.name(),
            "{ty} field `algorithm`: checkpoint was taken by a different algorithm"
        );
        assert_eq!(
            saved.n_clients, env.cfg.n_clients,
            "{ty} field `n_clients`: checkpoint was taken on a different fleet size"
        );
        assert_eq!(
            saved.rounds, env.cfg.rounds,
            "{ty} field `rounds`: checkpoint was taken for a different run length"
        );
        // A disabled plane checkpoints as `None` whatever its inert
        // retention knob says, so compare enabled-ness first and the
        // full policy only when the checkpoint actually carries one.
        assert_eq!(
            saved.comm.map(|c| c.cfg),
            self.comm.delta_downloads.then_some(self.comm),
            "{ty} field `comm`: checkpoint was taken under a different communication-plane policy"
        );
        assert_eq!(
            saved.topo,
            self.topo.is_hierarchical().then_some(*self.topo),
            "{ty} field `topo`: checkpoint was taken under a different aggregation topology"
        );
        assert_eq!(
            saved.byz,
            self.trainer.byz_policy(),
            "{ty} field `byz`: checkpoint was taken under a different Byzantine policy"
        );
        // The trace and quant keys carry run state beside the policy;
        // only the policy is validated.
        assert_eq!(
            saved.trace.map(|tr| &tr.plan),
            self.trace,
            "{ty} field `trace`: checkpoint was taken under a different availability-trace plan"
        );
        assert_eq!(
            saved.quant.map(|q| q.cfg),
            self.trainer.quant_policy(),
            "{ty} field `quant`: checkpoint was taken under a different quantization policy"
        );
        self.trainer.reset_quant();
        if let Some(q) = saved.quant {
            self.trainer.restore_quant(q);
        }
        Core {
            state: saved.state.clone(),
            comm: CommPlane::from_state(saved.comm, env.cfg.n_clients),
            trace: saved
                .trace
                .map_or_else(TraceState::new, TraceState::from_checkpoint),
        }
    }

    /// The finished run.
    pub fn finish<R>(
        &self,
        core: Core<T::ServerState>,
        ledger: Vec<R>,
        clock_s: f64,
    ) -> Outcome<T::ServerState, R> {
        Outcome {
            model: self.trainer.global_model(&core.state).clone(),
            state: core.state,
            ledger,
            clock_s,
        }
    }

    /// Whether the trace plane makes client `k` unreachable for a
    /// version-`v` dispatch at `clock`. Decided before any payload is
    /// planned: an unreachable client never receives the download, so no
    /// down-link bytes are charged and its cache row stays valid.
    pub fn gate(&self, env: &FlEnv, v: usize, k: usize, clock: f64) -> Option<TraceLoss> {
        let plan = self.trace?;
        if !plan.participates(env.cfg.seed, v, k, clock) {
            Some(TraceLoss::Unavailable)
        } else if plan.outage_at(env.cfg.seed, self.topo, k, clock) {
            Some(TraceLoss::Outage)
        } else {
            None
        }
    }

    /// Plans and costs one dispatch on device sample `dev`: the payload
    /// the communication plane actually ships (delta where the client's
    /// cache allows), the quantized upload size — rewritten *before*
    /// latency costing, so compression buys cheaper virtual time and the
    /// ledger tallies and edge-bundle sizing see it too — the hwsim round
    /// trip, then thermal throttle and timing adversary. Reads the cache
    /// table and the thermal map; advances neither.
    pub fn plan(
        &self,
        env: &FlEnv,
        core: &mut Core<T::ServerState>,
        v: usize,
        k: usize,
        dev: &DeviceSample,
        clock: f64,
    ) -> Planned {
        let spec = self.trainer.payload_spec(env, v, k);
        let state = &core.state;
        let mut payload = core.comm.plan(
            k,
            v,
            &spec,
            || self.trainer.payload_params(env, state, v, k),
            |old| self.trainer.payload_params(env, old, v, k),
        );
        if let Some(wire) = self.trainer.quant_up_bytes(&spec) {
            payload.up_bytes = wire;
        }
        let mut lat =
            self.trainer
                .cost(env, v, k)
                .dispatch_round_trip(dev, env.cfg.local_iters, &payload);
        let mut throttled = false;
        if let Some(plan) = self.trace {
            (lat, throttled) = core.trace.cost(plan, env.cfg.seed, k, clock, lat);
        }
        Planned {
            shape_id: spec.shape_id,
            payload,
            lat,
            throttled,
        }
    }

    /// The download reached client `k` and its device runs: the cache
    /// row records `(v, shape)` and the busy streak accrues.
    pub fn delivered(
        &self,
        env: &FlEnv,
        core: &mut Core<T::ServerState>,
        v: usize,
        k: usize,
        p: &Planned,
        clock: f64,
    ) {
        core.comm.record_dispatch(k, v, p.shape_id);
        if let Some(plan) = self.trace {
            let busy_s = p.lat.total();
            core.trace.note_busy(plan, env.cfg.seed, k, clock, busy_s);
        }
    }

    /// Client `k`'s dispatch was lost after the download went out: the
    /// server no longer trusts what the client holds, and the client's
    /// error-feedback residual describes an upload the model never
    /// absorbed, so both rows go.
    pub fn lost(&self, core: &mut Core<T::ServerState>, k: usize, cause: QuantLoss) {
        core.comm.invalidate(k);
        self.trainer.quant_invalidate(k, cause);
    }

    /// Trains `(version, client)` jobs on a bounded pool of scoped worker
    /// threads, each against `state_of(version)`, with cohort batching:
    /// jobs run in stable payload-shape order (HeteroFL width cohorts,
    /// FedDF/FedET zoo members and full-model clients each share a shape
    /// fingerprint), so each worker's packed-GEMM workspaces stay
    /// constant-size across a cohort. Results come back in `jobs` order
    /// and every job is computed independently — numerics equal a plain
    /// ordered fan-out. The hardware budget is split between client
    /// workers and per-client kernel threads (`thread_split`).
    pub fn train<'s>(
        &self,
        env: &FlEnv,
        jobs: &[(usize, usize)],
        state_of: impl Fn(usize) -> &'s T::ServerState + Sync,
    ) -> Vec<(T::Update, f32)>
    where
        T::ServerState: 's,
    {
        let (outer, inner) = fp_tensor::parallel::thread_split(jobs.len());
        fp_tensor::parallel::parallel_map_grouped(
            jobs,
            |_, &(v, k)| self.trainer.payload_spec(env, v, k).shape_id,
            outer,
            |_, &(v, k)| {
                let backend = fp_tensor::backend_for_threads(inner);
                let lr = env.cfg.lr.at(v);
                self.trainer.train(env, state_of(v), v, k, lr, backend)
            },
        )
    }

    /// Validation metrics of the model version `v + 1`, when the cadence
    /// (every `rounds/8`, and always the last) measures it.
    pub fn eval(
        &self,
        env: &FlEnv,
        core: &mut Core<T::ServerState>,
        v: usize,
    ) -> (Option<f32>, Option<f32>) {
        let cadence = (env.cfg.rounds / 8).max(1);
        if v % cadence != cadence - 1 && v + 1 != env.cfg.rounds {
            return (None, None);
        }
        let model = self.trainer.global_model_mut(&mut core.state);
        (Some(env.val_clean(model, 64)), Some(env.val_adv(model, 64)))
    }

    /// Drops thermal rows that have cooled by `clock` (cold and absent
    /// rows behave identically, so this only bounds memory).
    pub fn prune(&self, env: &FlEnv, core: &mut Core<T::ServerState>, clock: f64) {
        if let Some(plan) = self.trace {
            core.trace.prune(plan, env.cfg.seed, clock);
        }
    }
}
