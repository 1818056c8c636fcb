//! Federated-learning engine and the paper's baseline methods.
//!
//! This crate provides the substrate FedProphet is evaluated against
//! (paper §7.1 "Baselines", Appendix B.2):
//!
//! | Baseline | Family | Module |
//! |---|---|---|
//! | jFAT (Zizzo et al. 2020) | joint end-to-end FAT | [`baselines::JFat`] |
//! | FedDF-AT (Lin et al. 2020) | knowledge distillation | [`baselines::Distill`] |
//! | FedET-AT (Cho et al. 2022) | knowledge distillation | [`baselines::Distill`] |
//! | HeteroFL-AT (Diao et al. 2020) | partial training (static slice) | [`baselines::PartialTraining`] |
//! | FedDrop-AT (Wen et al. 2022) | partial training (random mask) | [`baselines::PartialTraining`] |
//! | FedRolex-AT (Alam et al. 2022) | partial training (rolling window) | [`baselines::PartialTraining`] |
//! | FedRBN (Hong et al. 2023) | robustness propagation via BN | [`baselines::FedRbn`] |
//!
//! Shared infrastructure:
//!
//! * [`FlConfig`]/[`FlEnv`] — the simulation environment: dataset splits,
//!   per-client device samples (from `fp-hwsim`), per-round client
//!   sampling, and per-client memory budgets;
//! * `run` (crate-private) — the run core both schedulers sit on: run
//!   state, every plane stage (gate, plan, deliver / lose, train, eval),
//!   checkpoint plane keys, resume checks, and the shared [`Outcome`];
//! * [`sched`] — the round scheduler, a barrier policy over that core
//!   (a round closes on a prefix of its finish order: straggler
//!   deadlines, dropout, over-selection; checkpoint/resume, per-round
//!   metrics ledger);
//!   **every** algorithm above runs through it. The one trainer
//!   contract is [`ScheduledTrainer`], generic over serializable
//!   **server state**: implement it directly; single-model algorithms
//!   use the model itself, a `CascadeModel` whose JSON is its
//!   `Checkpoint` (the historical single-model shape), while FedDF/FedET
//!   carry their model zoo + temperature schedule as [`DistillState`]. Every cloneable trainer
//!   is an [`FlAlgorithm`] that runs on the default wait-all scheduler;
//! * [`async_sched`] — the other barrier policy: FedBuff-style
//!   asynchronous aggregation on a continuous virtual clock
//!   (staleness-weighted buffer, concurrency cap, immediate re-dispatch,
//!   per-dispatch dropout with server-side timeouts, optional
//!   staleness-adaptive flush threshold, mid-flight checkpoint/resume);
//!   drives the same [`ScheduledTrainer`] contract;
//! * [`comm`] — the server-side communication plane: per-client payload
//!   cache table, bounded snapshot retention, and delta-encoded
//!   downloads; both schedulers choose delta-vs-full per dispatch and
//!   cost the two transfer legs asymmetrically;
//! * [`byz`] — the Byzantine-client plane: seeded hostile-client plans
//!   corrupting uplink updates through the existing dispatch path, and
//!   pluggable robust aggregation rules (trimmed mean, norm-clipped
//!   multi-Krum) composed with the schedulers' staleness weights;
//! * [`trace`] — the availability-trace plane: seeded device-class
//!   profiles with diurnal availability curves on the virtual clock,
//!   busy-duration thermal throttling of hwsim latencies, correlated
//!   cohort-keyed outage windows, and a cohort-straggle timing adversary
//!   composing with the Byzantine plane; replaces the per-(round,
//!   client) availability coin flip in both schedulers when enabled;
//! * [`quant`] — the quantized up-link plane: a trainer wrapper with
//!   seeded stochastic quantization, per-client error feedback and exact
//!   wire-byte costing;
//! * [`topology`] — the aggregation tree: flat, or two-tier with seeded
//!   cohorts, edge bundling and a backhaul link;
//! * [`synthetic`] — a closed-form [`SyntheticTrainer`] for fleet-scale
//!   engine tests and benches;
//! * [`local_train`] — the local SGD/adversarial-training loop;
//! * [`aggregate`] — weighted FedAvg, the partial-average accumulator
//!   (paper Eq. 16–17), and the robust-statistics primitives the
//!   Byzantine plane's rules are built on;
//! * [`submodel`] — channel-group based sub-model extraction and
//!   aggregation used by the partial-training family.
//!
//! Every algorithm implements [`FlAlgorithm`] and returns an [`FlOutcome`]
//! with the final global model and the per-round history.

pub mod aggregate;
pub mod async_sched;
pub mod baselines;
pub mod byz;
pub mod comm;
mod config;
mod engine;
mod local;
pub mod metrics;
pub mod quant;
mod run;
pub mod sched;
pub mod submodel;
pub mod synthetic;
pub mod topology;
pub mod trace;

pub use async_sched::{
    adaptive_k, staleness_weight, AsyncAggRecord, AsyncCheckpoint, AsyncConfig, AsyncOutcome,
    AsyncScheduler, AsyncStopPoint, AsyncTimeline, PendingDispatch, UpstreamBundle,
    SALT_ASYNC_DROP,
};
pub use baselines::{
    Distill, DistillState, DistillVariant, FedRbn, JFat, PartialTraining, SubmodelScheme,
};
pub use byz::{
    AttackKind, AttackPlan, ByzPolicy, ByzTrainer, FilterReason, FilteredClient, RobustRule,
    RobustStats, SALT_ATTACK,
};
pub use comm::{CacheEntry, CommConfig, CommPlane, CommState};
pub use config::FlConfig;
pub use engine::{scale_budgets, FlAlgorithm, FlEnv};
pub use local::{local_train, LocalTrainConfig};
pub use metrics::{FlOutcome, RoundRecord};
pub use quant::{
    quant_seed, QuantConfig, QuantLoss, QuantLosses, QuantRow, QuantState, QuantTrainer,
};
pub use run::Outcome;
pub use sched::{
    draw_dropouts, model_hash, over_select_count, sample_availability, simulate_round,
    DeadlinePolicy, EventScheduler, RoundSim, SchedCheckpoint, SchedConfig, SchedOutcome,
    SchedRound, ScheduledTrainer,
};
pub use synthetic::SyntheticTrainer;
pub use topology::TopologyConfig;
pub use trace::{
    OutagePlan, StragglePlan, TraceCheckpoint, TraceClass, TraceLoss, TracePlan, TraceState,
    SALT_TRACE,
};
