//! The five workloads: how each environment is generated from the seed,
//! what one *unit* of it runs, and the output checks.
//!
//! A unit is one complete fixed-size run through the public entry point
//! (`FedProphet::run_detailed` or a scheduler's `run_streamed`). The
//! measured phase repeats the unit until `--seconds` have passed; every
//! repeat must reproduce the first one's model hash and ledger digest, so
//! the simulated numbers are those of one unit whatever the host speed.

use crate::timed::{Methods, Timed};
use fedprophet::{FedProphet, ProphetConfig};
use fp_bench::envs::{cifar_env, fleet_env, reference_specs, Het, Scale};
use fp_data::{generate, SynthConfig};
use fp_fl::{
    model_hash, over_select_count, AsyncAggRecord, AsyncConfig, AsyncScheduler, AsyncStopPoint,
    AttackKind, AttackPlan, ByzTrainer, CommConfig, DeadlinePolicy, EventScheduler, FlConfig,
    FlEnv, JFat, QuantConfig, QuantTrainer, RobustRule, SchedConfig, SchedRound, ScheduledTrainer,
    SyntheticTrainer, TopologyConfig, TracePlan,
};
use fp_hwsim::{ForwardLink, SamplingMode, CIFAR_POOL};
use std::time::Instant;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ProphetSync,
    JfatSync,
    FleetAsyncDense,
    FleetAsyncPlanes,
    FleetSyncDeadline,
}

pub const ALL: [Workload; 5] = [
    Workload::ProphetSync,
    Workload::JfatSync,
    Workload::FleetAsyncDense,
    Workload::FleetAsyncPlanes,
    Workload::FleetSyncDeadline,
];

/// The two training workloads draw 5 of 20 clients per round from a pool
/// whose FLOPs span 300×, so one seed's fleet is 7× slower in virtual
/// time than another's and DMA hands out different windows (±12 % host
/// time). No bound could gate that. Their fleet and selection schedule
/// are therefore the ones of this seed; `--seed` generates the dataset
/// and its non-IID partition.
const SCHEDULE_SEED: u64 = 7;

const FLEET_CLIENTS: usize = 20_000;
/// Code width of the quantized up-link on `fleet_async_planes`.
pub const QUANT_BITS: u32 = 4;
/// Virtual seconds per simulated day on `fleet_async_planes`: about half
/// of one unit's virtual horizon, so the availability curve goes through
/// two full cycles in every unit.
const PLANES_DAY_S: f64 = 0.004;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ProphetSync => "prophet_sync",
            Workload::JfatSync => "jfat_sync",
            Workload::FleetAsyncDense => "fleet_async_dense",
            Workload::FleetAsyncPlanes => "fleet_async_planes",
            Workload::FleetSyncDeadline => "fleet_sync_deadline",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Training workloads are the paper's loop (kernels, PGD, cascade);
    /// fleet workloads are the engines with a synthetic trainer.
    pub fn trains(self) -> bool {
        matches!(self, Workload::ProphetSync | Workload::JfatSync)
    }

    pub fn is_async(self) -> bool {
        matches!(self, Workload::FleetAsyncDense | Workload::FleetAsyncPlanes)
    }

    /// Thread budget. Fleet runs pin 1: the per-aggregation scoped-thread
    /// fan-out makes budget 2 slower and bimodal there (README, "thread
    /// budget"); `fl.fanout_ratio` keeps that cost visible.
    pub fn threads(self) -> usize {
        if self.trains() {
            2
        } else {
            1
        }
    }

    /// Rounds (or aggregations) of one unit and of the untimed warm-up.
    /// Sized so a unit takes 1–4 s on the 2-core sandbox; `smoke` is the
    /// test scale.
    pub fn lengths(self, smoke: bool) -> (usize, usize) {
        let (unit, warm) = match self {
            Workload::ProphetSync => (8, 4),
            Workload::JfatSync => (3, 1),
            Workload::FleetAsyncDense => (20_000, 2_000),
            Workload::FleetAsyncPlanes => (100, 20),
            Workload::FleetSyncDeadline => (2_500, 250),
        };
        match (smoke, self) {
            (false, _) => (unit, warm),
            // One round per module is the shortest FedProphet run.
            (true, Workload::ProphetSync) => (4, 1),
            (true, Workload::JfatSync) => (2, 1),
            (true, _) => ((unit / 50).max(4), 2),
        }
    }

    /// Generates the environment from `seed`, with `cfg.rounds` unset
    /// (callers set it to the unit or warm-up length).
    pub fn env(self, seed: u64, smoke: bool) -> FlEnv {
        match self {
            Workload::ProphetSync | Workload::JfatSync => {
                let scale = if smoke { Scale::Fast } else { Scale::Medium };
                let pinned = cifar_env(scale, Het::Balanced, SCHEDULE_SEED);
                let seeded = cifar_env(scale, Het::Balanced, seed);
                FlEnv::new(
                    seeded.data,
                    seeded.splits,
                    pinned.fleet,
                    pinned.reference_specs,
                    pinned.cfg,
                )
            }
            Workload::FleetAsyncDense => fleet_env(FLEET_CLIENTS, 1, seed),
            Workload::FleetSyncDeadline => {
                let mut env = fleet_env(FLEET_CLIENTS, 1, seed);
                env.cfg.clients_per_round = 32;
                env
            }
            Workload::FleetAsyncPlanes => {
                // 20 000 lazy clients whose payload is the Medium
                // backbone (24 276 parameters) instead of `fleet_env`'s
                // 1 676-parameter one: codec, delta and robust rule work
                // scale with the payload.
                let mut cfg = FlConfig::fast(1, seed);
                cfg.n_clients = FLEET_CLIENTS;
                cfg.clients_per_round = 4;
                let data = generate(&SynthConfig::tiny(8, 16), seed);
                let specs = reference_specs(3, 16, data.train.n_classes(), &[12, 24, 32, 48]);
                FlEnv::lazy(data, &CIFAR_POOL, SamplingMode::Balanced, specs, cfg)
            }
        }
    }

    /// Runs one unit on `env` (whose `cfg.rounds` is the unit length).
    /// `traced` wraps every trainer level in [`Timed`] and timestamps the
    /// ledger sink; the gated runs pass `false`.
    pub fn run_unit(self, env: &FlEnv, traced: bool) -> Unit {
        match self {
            Workload::ProphetSync => prophet_unit(env),
            Workload::JfatSync => {
                let cfg = SchedConfig::default();
                if traced {
                    let s = EventScheduler::new(Timed::new(JFat::new()), cfg);
                    let mut u = drive_sync(&s, env, true);
                    u.levels = vec![Level::of("jfat", &s.trainer.methods)];
                    u
                } else {
                    drive_sync(&EventScheduler::new(JFat::new(), cfg), env, false)
                }
            }
            Workload::FleetAsyncDense => {
                if traced {
                    let s = AsyncScheduler::new(Timed::new(SyntheticTrainer), fleet_acfg());
                    let mut u = drive_async(&s, env, true);
                    u.levels = vec![Level::of("synthetic", &s.trainer.methods)];
                    u
                } else {
                    let s = AsyncScheduler::new(SyntheticTrainer, fleet_acfg());
                    drive_async(&s, env, false)
                }
            }
            Workload::FleetAsyncPlanes => {
                if traced {
                    let t = Timed::new(planes_trainer(Timed::new(QuantTrainer::new(
                        Timed::new(SyntheticTrainer),
                        QuantConfig::new(QUANT_BITS),
                    ))));
                    let s = planes_scheduler(t);
                    let mut u = drive_async(&s, env, true);
                    let byz = &s.trainer;
                    let quant = &byz.inner.inner;
                    let synth = &quant.inner.inner;
                    u.levels = vec![
                        Level::of("byz", &byz.methods),
                        Level::of("quant", &quant.methods),
                        Level::of("synthetic", &synth.methods),
                    ];
                    u
                } else {
                    drive_async(&planes_bare(), env, false)
                }
            }
            Workload::FleetSyncDeadline => {
                if traced {
                    let s = deadline_scheduler(Timed::new(SyntheticTrainer));
                    let mut u = drive_sync(&s, env, true);
                    u.levels = vec![Level::of("synthetic", &s.trainer.methods)];
                    u
                } else {
                    drive_sync(&deadline_scheduler(SyntheticTrainer), env, false)
                }
            }
        }
    }
}

/// The FedBuff policy of both asynchronous workloads.
pub fn fleet_acfg() -> AsyncConfig {
    AsyncConfig {
        concurrency: 64,
        buffer_k: 4,
        staleness_exp: 0.5,
        ..AsyncConfig::default()
    }
}

/// Trimmed mean against 10 % sign-flipping clients, over whatever
/// quantizing trainer the caller nests.
fn planes_trainer<Q>(quant: Q) -> ByzTrainer<Q> {
    ByzTrainer::new(
        quant,
        RobustRule::TrimmedMean { trim: 0.25 },
        Some(AttackPlan {
            fraction: 0.1,
            salt: 7,
            kind: AttackKind::SignFlip { scale: 4.0 },
        }),
    )
}

/// Every plane on: delta down-links, two-tier edges, diurnal trace. The
/// backhaul is `fl_hier`'s (50 µs, 10 Gbps), scaled to the synthetic
/// round trips; the default backhaul makes two-tier 27× slower, which is
/// a stress test of the dispatcher and not a benchmark.
fn planes_scheduler<T: ScheduledTrainer>(trainer: T) -> AsyncScheduler<T> {
    AsyncScheduler::with_trace(
        trainer,
        fleet_acfg(),
        CommConfig {
            delta_downloads: true,
            snapshot_retention: 8,
            cache_rows: 128,
        },
        TopologyConfig {
            uplink: ForwardLink {
                base_s: 5e-5,
                gbps: 10.0,
            },
            ..TopologyConfig::two_tier(32, 4)
        },
        Some(TracePlan::diurnal(PLANES_DAY_S)),
    )
}

/// The `fleet_async_planes` scheduler as the gated runs build it.
pub fn planes_bare() -> AsyncScheduler<ByzTrainer<QuantTrainer<SyntheticTrainer>>> {
    planes_scheduler(planes_trainer(QuantTrainer::new(
        SyntheticTrainer,
        QuantConfig::new(QUANT_BITS),
    )))
}

const DEADLINE_SCHED: SchedConfig = SchedConfig {
    over_select: 1.3,
    dropout_p: 0.1,
    deadline: DeadlinePolicy::MedianMultiple(1.5),
    min_completions: 8,
};

fn deadline_scheduler<T: ScheduledTrainer>(trainer: T) -> EventScheduler<T> {
    EventScheduler::with_comm(trainer, DEADLINE_SCHED, CommConfig::delta())
}

// ------------------------------------------------------------------ units

/// Busy time of one [`Timed`] nesting level, outermost first.
#[derive(Debug, Clone, Copy)]
pub struct Level {
    pub name: &'static str,
    pub busy_ns: u64,
    pub train_ns: u64,
    pub train_calls: u64,
    pub merge_ns: u64,
}

impl Level {
    fn of(name: &'static str, m: &Methods) -> Level {
        Level {
            name,
            busy_ns: m.busy_ns(),
            train_ns: m.train.busy_ns(),
            train_calls: m.train.calls(),
            merge_ns: m.merge.busy_ns(),
        }
    }
}

/// Exact counts summed over a unit's ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub dropped_out: u64,
    pub stragglers: u64,
    pub timed_out: u64,
    pub unavailable: u64,
    pub outage_lost: u64,
    pub throttled: u64,
    pub filtered: u64,
    pub clip_applied: u64,
    pub delta: u64,
    /// Σ mean staleness × merged, so the unit mean is this over `merged`.
    pub staleness_sum: f64,
    pub max_staleness: u64,
    pub bundles: u64,
}

/// FedProphet-only outputs of a unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProphetExtra {
    pub mean_assigned: f64,
    pub compute_s: f64,
    pub data_s: f64,
    pub transfer_s: f64,
    pub mem_reduction: f64,
    /// `(module, completed clients, mean modules assigned)` per round.
    pub rounds: Vec<(usize, usize, f32)>,
    pub n_modules: usize,
}

/// What one unit produced.
#[derive(Debug, Clone, Default)]
pub struct Unit {
    pub wall_s: f64,
    pub records: u64,
    /// Records with a non-finite loss or a clock that ran backwards.
    pub bad_records: u64,
    pub dispatches: u64,
    pub merged: u64,
    pub virtual_s: f64,
    pub up_bytes: u64,
    pub down_bytes: u64,
    pub model_hash: u64,
    pub digest: u64,
    pub final_val: Option<(f32, f32)>,
    pub counts: Counts,
    pub prophet: Option<ProphetExtra>,
    /// Failed whole-unit checks, as messages.
    pub failures: Vec<String>,
    /// Whole-unit checks made.
    pub checks: u64,
    // Traced pass only.
    pub gaps_s: Vec<f64>,
    pub sink_ns: u64,
    pub levels: Vec<Level>,
}

impl Unit {
    /// The part of a unit that must repeat exactly for a seed.
    pub fn fingerprint(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.model_hash,
            self.digest,
            self.virtual_s.to_bits(),
            self.dispatches,
            self.up_bytes,
            self.down_bytes,
        )
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// FNV-1a over the bit patterns a ledger record contributes.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Accumulates a streamed ledger into a [`Unit`].
struct Tally {
    unit: Unit,
    digest: Digest,
    traced: bool,
    last_record: Instant,
}

impl Tally {
    fn new(traced: bool) -> Tally {
        Tally {
            unit: Unit::default(),
            digest: Digest::new(),
            traced,
            last_record: Instant::now(),
        }
    }

    /// The part every record shares: clock, loss, bytes, validation.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        clock_s: f64,
        loss: f32,
        up: u64,
        down: u64,
        val: (Option<f32>, Option<f32>),
        dispatches: u64,
        merged: u64,
    ) {
        let u = &mut self.unit;
        u.records += 1;
        // `virtual_s` still holds the previous record's clock here.
        if !loss.is_finite() || !clock_s.is_finite() || clock_s < u.virtual_s {
            u.bad_records += 1;
        }
        u.virtual_s = clock_s;
        u.up_bytes += up;
        u.down_bytes += down;
        u.dispatches += dispatches;
        u.merged += merged;
        if let (Some(c), Some(a)) = val {
            u.final_val = Some((c, a));
        }
        for v in [
            clock_s.to_bits(),
            u64::from(loss.to_bits()),
            up,
            down,
            merged,
        ] {
            self.digest.eat(v);
        }
    }

    fn sync(&mut self, r: &SchedRound) {
        let arrived = self.traced.then(Instant::now);
        self.record(
            r.clock_s,
            r.train_loss,
            r.up_bytes,
            r.down_bytes,
            (r.val_clean, r.val_adv),
            r.selected as u64,
            r.completed as u64,
        );
        let c = &mut self.unit.counts;
        c.dropped_out += r.dropped_out as u64;
        c.stragglers += r.stragglers as u64;
        c.unavailable += r.unavailable as u64;
        c.outage_lost += r.outage_lost as u64;
        c.throttled += r.throttled as u64;
        c.filtered += r.filtered.len() as u64;
        c.clip_applied += r.clip_applied as u64;
        c.delta += r.delta_dispatches as u64;
        self.digest.eat(r.selected as u64);
        self.digest.eat(r.stragglers as u64);
        self.stamp(arrived);
    }

    fn r#async(&mut self, r: &AsyncAggRecord) {
        let arrived = self.traced.then(Instant::now);
        let lost = r.timed_out + r.unavailable + r.outage_lost;
        self.record(
            r.clock_s,
            r.train_loss,
            r.up_bytes,
            r.down_bytes,
            (r.val_clean, r.val_adv),
            (r.merged + lost) as u64,
            r.merged as u64,
        );
        let c = &mut self.unit.counts;
        c.timed_out += r.timed_out as u64;
        c.unavailable += r.unavailable as u64;
        c.outage_lost += r.outage_lost as u64;
        c.throttled += r.throttled as u64;
        c.filtered += r.filtered.len() as u64;
        c.clip_applied += r.clip_applied as u64;
        c.delta += r.delta_merged as u64;
        c.staleness_sum += f64::from(r.mean_staleness) * r.merged as f64;
        c.max_staleness = c.max_staleness.max(r.max_staleness as u64);
        c.bundles += r.bundles as u64;
        self.digest.eat(r.max_staleness as u64);
        self.digest.eat(lost as u64);
        self.stamp(arrived);
    }

    /// Traced pass: the wall gap since the previous record and the time
    /// this sink call itself took.
    fn stamp(&mut self, arrived: Option<Instant>) {
        if let Some(t) = arrived {
            self.unit
                .gaps_s
                .push(t.duration_since(self.last_record).as_secs_f64());
            let done = Instant::now();
            self.unit.sink_ns += done.duration_since(t).as_nanos() as u64;
            self.last_record = done;
        }
    }

    fn finish(mut self, wall_s: f64, model: &fp_nn::CascadeModel, rounds: usize) -> Unit {
        self.unit.wall_s = wall_s;
        self.unit.model_hash = model_hash(model);
        self.unit.digest = self.digest.0;
        let got = self.unit.records;
        self.unit.check(got == rounds as u64, || {
            format!("{got} ledger records for {rounds} configured rounds")
        });
        self.unit
    }
}

fn drive_sync<T: ScheduledTrainer>(s: &EventScheduler<T>, env: &FlEnv, traced: bool) -> Unit {
    let want = over_select_count(
        env.cfg.clients_per_round,
        s.sched.over_select,
        env.cfg.n_clients,
    );
    let mut tally = Tally::new(traced);
    let mut mis_selected = 0u64;
    let start = Instant::now();
    let out = s.run_streamed(env, &mut |r| {
        mis_selected += u64::from(r.selected != want);
        tally.sync(r);
    });
    let mut unit = tally.finish(start.elapsed().as_secs_f64(), &out.model, env.cfg.rounds);
    unit.check(mis_selected == 0, || {
        format!("{mis_selected} rounds did not select {want} clients")
    });
    // Every selected client is accounted for exactly once.
    let c = unit.counts;
    let (sel, sum) = (unit.dispatches, unit.merged + c.stragglers + c.dropped_out);
    unit.check(sel == sum, || {
        format!("{sel} selected but {sum} completed, straggled or dropped")
    });
    unit
}

fn drive_async<T: ScheduledTrainer>(s: &AsyncScheduler<T>, env: &FlEnv, traced: bool) -> Unit {
    let mut tally = Tally::new(traced);
    let mut bad_merge = 0u64;
    let start = Instant::now();
    let out = s.run_streamed(env, &mut |r| {
        bad_merge += u64::from(r.merged != r.clients.len() || r.merged == 0);
        tally.r#async(r);
    });
    let mut unit = tally.finish(start.elapsed().as_secs_f64(), &out.model, env.cfg.rounds);
    unit.check(bad_merge == 0, || {
        format!("{bad_merge} aggregations whose merged count is not their client list")
    });
    if let Some(q) = s.trainer.quant_policy() {
        let n = env.model_param_bytes() / 4;
        let want = fp_nn::qcodec::wire_bytes(n, q.bits, q.chunk) * unit.merged;
        let got = unit.up_bytes;
        unit.check(got == want, || {
            format!(
                "q{} up-link {got} B is not wire_bytes × merged = {want} B",
                q.bits
            )
        });
    }
    if s.topo.is_hierarchical() {
        let b = unit.counts.bundles;
        unit.check(b > 0, || "two-tier run merged no edge bundle".into());
    }
    unit
}

fn prophet_unit(env: &FlEnv) -> Unit {
    let start = Instant::now();
    let out = FedProphet::new(ProphetConfig::default()).run_detailed(env);
    let wall_s = start.elapsed().as_secs_f64();
    let mut tally = Tally::new(false);
    let mut clock = 0.0f64;
    for r in &out.rounds {
        let (completed, stragglers, dropped_out) = (r.completed, r.stragglers, r.dropped_out);
        clock += r.round_time_s;
        tally.record(
            clock,
            r.train_loss,
            0,
            0,
            (Some(r.val_clean), Some(r.val_adv)),
            (completed + stragglers + dropped_out) as u64,
            completed as u64,
        );
        tally.unit.counts.stragglers += stragglers as u64;
        tally.unit.counts.dropped_out += dropped_out as u64;
        tally.digest.eat(u64::from(r.epsilon.to_bits()));
        tally.digest.eat(r.module as u64);
    }
    let n = out.rounds.len().max(1) as f64;
    let lat = out.total_latency();
    let mem_reduction = 1.0 - out.partition.max_module_mem() as f64 / env.full_mem_req() as f64;
    tally.unit.prophet = Some(ProphetExtra {
        mean_assigned: out
            .rounds
            .iter()
            .map(|r| f64::from(r.mean_assigned))
            .sum::<f64>()
            / n,
        compute_s: lat.compute_s,
        data_s: lat.data_access_s,
        transfer_s: lat.transfer_s,
        mem_reduction,
        rounds: out
            .rounds
            .iter()
            .map(|r| (r.module, r.completed, r.mean_assigned))
            .collect(),
        n_modules: out.partition.num_modules(),
    });
    let mut unit = tally.finish(wall_s, &out.model, env.cfg.rounds);
    unit.check(mem_reduction > 0.0, || {
        format!("largest module needs {mem_reduction:.3} less memory than the full model")
    });
    unit
}

/// Dispatch conservation on an asynchronous scheduler, from a mid-run
/// checkpoint: every dispatch the picker issued is in the ledger (merged
/// or lost) or still pending somewhere the checkpoint names.
///
/// # Panics
///
/// Panics on a workload that does not run on the asynchronous engine.
pub fn async_conservation(w: Workload, env: &FlEnv) -> Result<(), String> {
    let stop = AsyncStopPoint::after_agg(env.cfg.rounds / 2);
    let (issued, ledgered, pending) = match w {
        Workload::FleetAsyncDense => {
            let s = AsyncScheduler::new(SyntheticTrainer, fleet_acfg());
            conservation_of(&s.run_until(env, stop))
        }
        Workload::FleetAsyncPlanes => conservation_of(&planes_bare().run_until(env, stop)),
        other => panic!("{} does not run on the asynchronous engine", other.name()),
    };
    if issued == ledgered + pending {
        Ok(())
    } else {
        Err(format!(
            "{issued} dispatches issued, {ledgered} in the ledger and {pending} pending"
        ))
    }
}

fn conservation_of<S>(c: &fp_fl::AsyncCheckpoint<S>) -> (u64, u64, u64) {
    let ledgered: usize = c
        .ledger
        .iter()
        .map(|r| r.merged + r.timed_out + r.unavailable + r.outage_lost)
        .sum();
    // Losses since the last aggregation are counted but not yet in a
    // record; the checkpoint carries the timeout share of them.
    let pending = c.in_flight.len()
        + c.buffer.len()
        + c.timed_out
        + c.trace
            .as_ref()
            .map_or(0, |t| t.unavailable + t.outage_lost)
        + c.edge_buffers.iter().map(|(_, b)| b.len()).sum::<usize>()
        + c.upstream
            .iter()
            .flat_map(|(_, q)| q.iter().map(|b| b.1.len()))
            .sum::<usize>();
    (c.dispatch_count, ledgered as u64, pending as u64)
}

/// Quality floors `(clean, adversarial)` of a training unit: above what
/// a broken trainer falls to (1 in 8 clean, nothing adversarial), below
/// what any seed reaches. Three rounds into jFAT, adversarial accuracy
/// is still under chance on some seeds, so its floor only asks that the
/// model resists at all.
pub fn quality_floor(w: Workload) -> Option<(f32, f32)> {
    match w {
        Workload::ProphetSync => Some((0.3, 0.1)),
        Workload::JfatSync => Some((0.25, 0.02)),
        _ => None,
    }
}
