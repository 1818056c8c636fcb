//! The full FedProphet federated loop (paper Algorithm 2).
//!
//! One private `Server` (cascade, aux heads, ledger, ε traces, round
//! counter) is driven module by module; within a module `Phase` carries
//! the APA controller, the ε of the version being dispatched and the
//! early-stop bookkeeping. Every stage is spelled once:
//!
//! ```text
//!  per dispatch (module m, client k, model version = round counter)
//!    plan    availability draw ▶ DMA window (or module m alone)
//!            ▶ window latency model + window-weights payload
//!            ▶ hwsim dispatch round trip
//!    train   fan-out over (client, plan) jobs against the current global
//!            state; each result keeps its plan and dispatch version
//!
//!  per barrier (round close | buffer flush)
//!    close   take-or-draw ε ▶ trace ▶ partial average (Eq. 16/17), if any
//!            ▶ validate the cascaded prefix ▶ APA ▶ ledger record
//!            ▶ round counter ▶ early stop
//! ```
//!
//! `sync_round` and `async_phase` add only their barrier policy:
//!
//! * `sync_round` — select (with over-selection), plan the whole cohort
//!   against its own slowest member, draw dropouts, play the round on the
//!   virtual-time queue (`simulate_round`), train the clients that made the
//!   cut, close.
//! * `async_phase` — an `AsyncTimeline` per module: arm free slots (plan
//!   against the fleet's slowest possible participant, schedule the
//!   finish, train eagerly), pop finishes into a buffer, and at `buffer_k`
//!   sort by `(client, version)`, discount the FedAvg weights by
//!   staleness, close.
//!
//! ε is drawn lazily — at a version's first dispatch, or at its close if
//! nothing was dispatched against it — and taken at close, so both
//! policies call `Apa::epsilon()` exactly once per aggregation: the trace
//! has one entry per ledger record, and the record carries the ε the
//! *dispatches of that version* trained under (stale updates merged with
//! them trained under their own, earlier ε — inherent to staleness).
//!
//! `tests/prophet_golden.rs` pins this loop bit-for-bit in every mode.

use crate::apa::Apa;
use crate::aux_head::AuxHead;
use crate::dma::{assign_modules, ModuleAssignment};
use crate::module_target::ModuleTarget;
use crate::partition::{partition_model, ModulePartition};
use crate::trainer::{max_feature_perturbation, train_module_window, WindowTrainConfig};
use fp_attack::{AttackTarget, ModelTarget, Pgd, PgdConfig};
use fp_fl::aggregate::{average_bn_stats, weighted_average};
use fp_fl::async_sched::{staleness_weight, AsyncConfig, AsyncTimeline};
use fp_fl::sched::{draw_dropouts, over_select_count, simulate_round, SchedConfig, SALT_AVAIL};
use fp_fl::{FlAlgorithm, FlEnv, FlOutcome, RoundRecord};
use fp_hwsim::{param_transfer_bytes, ClientLatency, Payload};
use fp_nn::CascadeModel;
use fp_tensor::{seeded_rng, Tensor};
use rand::Rng;
use serde::Serialize;

/// FedProphet hyperparameters (paper §6 and §B.4).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ProphetConfig {
    /// Strong convexity coefficient µ (paper default 1e-5 at full scale;
    /// tiny-scale features are smaller, so the default here is 1e-4 —
    /// Figure 8 sweeps this).
    pub mu: f32,
    /// Initial perturbation scaling factor α₀ (§7.3: 0.3).
    pub alpha0: f32,
    /// APA step Δα (§6.2: 0.1).
    pub delta_alpha: f32,
    /// APA tolerance γ (§6.2: 0.05).
    pub gamma: f32,
    /// Max communication rounds per module; `None` divides the
    /// environment's total `rounds` evenly across modules.
    pub rounds_per_module: Option<usize>,
    /// Early-stop patience in rounds (paper: 50; `usize::MAX` disables).
    pub patience: usize,
    /// Adaptive Perturbation Adjustment on/off (Table 3 ablation).
    pub use_apa: bool,
    /// Differentiated Module Assignment on/off (Table 3 ablation).
    pub use_dma: bool,
    /// Local batches probed for `max‖Δz_m‖` when a module is fixed.
    pub probe_batches: usize,
    /// Validation subset size for APA's accuracy ratios.
    pub val_samples: usize,
    /// Overrides the environment-derived `R_min` (bytes) for the model
    /// partitioner — the knob behind the paper's Figure 9 sweep.
    pub r_min_override: Option<u64>,
    /// Round-scheduling policy (over-selection, dropout, straggler
    /// deadlines). The default wait-all barrier reproduces the historical
    /// lockstep loop; a deadline makes DMA's module assignment interact
    /// with simulated device speed — clients the DMA loads with extra
    /// modules take longer and can be cut as stragglers.
    pub sched: SchedConfig,
    /// Barrier-free asynchronous aggregation of the module window. When
    /// set, each module phase runs on a continuous virtual clock
    /// (`fp_fl::async_sched`): window updates stream into a staleness
    /// buffer, every `buffer_k` of them are partial-averaged (Eq. 16/17)
    /// with FedAvg weights discounted by `1/(1+staleness)^a`, and freed
    /// client slots re-arm immediately. `sched` is ignored in this mode;
    /// module boundaries stay synchronization points (module `m` must be
    /// fixed before `m+1` starts — clients still in flight at a boundary
    /// are discarded). The phase has no dispatch timeout, dropout or
    /// adaptive buffer: `timeout_s`, `dropout_p` and `adaptive_buffer`
    /// must stay at their defaults ([`ProphetConfig::validate`]).
    pub async_agg: Option<AsyncConfig>,
}

impl Default for ProphetConfig {
    fn default() -> Self {
        ProphetConfig {
            mu: 1e-4,
            alpha0: 0.3,
            delta_alpha: 0.1,
            gamma: 0.05,
            rounds_per_module: None,
            patience: usize::MAX,
            use_apa: true,
            use_dma: true,
            probe_batches: 2,
            val_samples: 64,
            r_min_override: None,
            sched: SchedConfig::default(),
            async_agg: None,
        }
    }
}

impl ProphetConfig {
    /// Validates the configuration against the environment it is about to
    /// run on — once, before any client trains.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate value, naming the field; `sched` and
    /// `async_agg` are held to their own `validate`. The async module
    /// phase has no dispatch timeout, dropout or adaptive buffer, so
    /// setting one is rejected rather than ignored.
    pub fn validate(&self, env: &FlEnv) {
        let check = |field: &str, ok: bool, want: &str| {
            assert!(ok, "ProphetConfig field `{field}`: {want}");
        };
        let mu_ok = self.mu >= 0.0 && self.mu.is_finite();
        check("mu", mu_ok, "must be finite and non-negative");
        let apa = [
            ("alpha0", self.alpha0),
            ("delta_alpha", self.delta_alpha),
            ("gamma", self.gamma),
        ];
        for (field, v) in apa {
            check(
                field,
                v > 0.0 && v.is_finite(),
                "must be finite and positive",
            );
        }
        let counts = [
            ("rounds_per_module", self.rounds_per_module.unwrap_or(1)),
            ("probe_batches", self.probe_batches),
            ("val_samples", self.val_samples),
        ];
        for (field, n) in counts {
            check(field, n >= 1, "must be >= 1");
        }
        self.sched.validate();
        let Some(acfg) = &self.async_agg else {
            return;
        };
        let unsupported = [
            ("async_agg.timeout_s", acfg.timeout_s.is_some()),
            ("async_agg.dropout_p", acfg.dropout_p != 0.0),
            ("async_agg.adaptive_buffer", acfg.adaptive_buffer.is_some()),
        ];
        for (field, set) in unsupported {
            check(field, !set, "not supported by the module phase");
        }
        acfg.validate();
        check(
            "async_agg.buffer_k",
            acfg.buffer_k <= env.cfg.n_clients,
            "above n_clients deadlocks the module phase",
        );
    }
}

/// One FedProphet communication round's record.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ProphetRound {
    /// Global round index.
    pub round: usize,
    /// Module being learned.
    pub module: usize,
    /// Perturbation budget ε used this round (input ℓ∞ for module 1,
    /// feature ℓ2 otherwise).
    pub epsilon: f32,
    /// Mean local training loss.
    pub train_loss: f32,
    /// Validation clean accuracy of the cascaded prefix.
    pub val_clean: f32,
    /// Validation adversarial accuracy of the cascaded prefix.
    pub val_adv: f32,
    /// Simulated synchronization latency of the round (slowest client
    /// whose update was aggregated).
    pub latency_compute_s: f64,
    /// Simulated data-access (swap) latency of the round.
    pub latency_data_s: f64,
    /// Simulated up/down-link window-transfer latency of that same
    /// slowest aggregated client.
    pub latency_transfer_s: f64,
    /// Mean number of modules assigned per aggregated client (DMA
    /// effect).
    pub mean_assigned: f32,
    /// Mean staleness (model versions) of the aggregated updates — always
    /// 0 under synchronous rounds.
    pub mean_staleness: f32,
    /// Virtual duration of the round under the scheduling policy
    /// (deadline-clipped; equals the slowest-client latency under the
    /// default wait-all barrier).
    pub round_time_s: f64,
    /// Clients whose updates were aggregated.
    pub completed: usize,
    /// Surviving clients cut by the straggler deadline.
    pub stragglers: usize,
    /// Selected clients that dropped out and never reported.
    pub dropped_out: usize,
}

/// The result of a FedProphet run: final model, partition, per-round
/// records, and the ε traces (Figure 10).
pub struct ProphetOutcome {
    /// Trained backbone.
    pub model: CascadeModel,
    /// The module partition used.
    pub partition: ModulePartition,
    /// Per-round records.
    pub rounds: Vec<ProphetRound>,
    /// Per-module ε traces.
    pub eps_traces: Vec<Vec<f32>>,
    /// The probed `E[max‖Δz_m‖₂]` reference per module boundary (entry `m`
    /// is the reference used for module `m+1`'s perturbation; Figure 8's
    /// `d*₁` is entry 0).
    pub delta_z_refs: Vec<f32>,
}

impl ProphetOutcome {
    /// Total simulated training time (sum of round sync latencies).
    pub fn total_latency(&self) -> ClientLatency {
        self.rounds.iter().fold(ClientLatency::zero(), |acc, r| {
            acc.add(&ClientLatency {
                compute_s: r.latency_compute_s,
                data_access_s: r.latency_data_s,
                transfer_s: r.latency_transfer_s,
            })
        })
    }

    /// Total virtual wall-clock under the scheduling policy (sum of
    /// deadline-clipped round durations; equals
    /// `total_latency().total()` under the default wait-all barrier).
    pub fn total_round_time(&self) -> f64 {
        self.rounds.iter().map(|r| r.round_time_s).sum()
    }

    /// Converts to the generic `fp-fl` outcome shape.
    pub fn into_fl_outcome(self) -> FlOutcome {
        let history = self
            .rounds
            .iter()
            .map(|r| RoundRecord {
                round: r.round,
                train_loss: r.train_loss,
                val_clean: Some(r.val_clean),
                val_adv: Some(r.val_adv),
            })
            .collect();
        FlOutcome {
            model: self.model,
            history,
        }
    }
}

/// The FedProphet algorithm (client trainer + server coordinator).
#[derive(Debug, Clone, Copy)]
pub struct FedProphet {
    /// Hyperparameters.
    pub config: ProphetConfig,
}

impl FedProphet {
    /// Creates the algorithm.
    pub fn new(config: ProphetConfig) -> Self {
        FedProphet { config }
    }

    /// Runs Algorithm 2, returning the detailed outcome.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not [`ProphetConfig::validate`].
    pub fn run_detailed(&self, env: &FlEnv) -> ProphetOutcome {
        let pcfg = &self.config;
        pcfg.validate(env);
        let mut server = Server::new(env, pcfg);
        let n_modules = server.partition.num_modules();
        let rounds_per_module = pcfg
            .rounds_per_module
            .unwrap_or((env.cfg.rounds / n_modules).max(1));
        let mut delta_z_refs: Vec<f32> = Vec::new();
        // ε reference for the *current* module's input: ε₀ for module 1.
        let mut eps_ref = env.cfg.eps0;
        let mut prev_ratio: Option<(f32, f32)> = None;

        for m in 0..n_modules {
            let apa = (m > 0).then(|| {
                let mut a = Apa::new(pcfg.alpha0, pcfg.delta_alpha, pcfg.gamma, eps_ref);
                if let Some((c, adv)) = prev_ratio {
                    a.set_reference_ratio(c, adv);
                }
                a
            });
            let mut phase = Phase {
                m,
                apa,
                eps: None,
                last_eps: env.cfg.eps0,
                best_score: f32::NEG_INFINITY,
                since_best: 0,
            };
            match &pcfg.async_agg {
                Some(acfg) => server.async_phase(&mut phase, acfg, rounds_per_module),
                None => {
                    for _ in 0..rounds_per_module {
                        if server.sync_round(&mut phase) {
                            break;
                        }
                    }
                }
            }

            // Fix module m: record C*/A* and probe max‖Δz_m‖ for the next
            // module's APA reference (Eq. 11).
            prev_ratio = Some(server.validate_prefix(m));
            if m + 1 < n_modules {
                eps_ref = server.probe_delta_z(m, phase.last_eps);
                delta_z_refs.push(eps_ref);
            }
        }

        ProphetOutcome {
            model: server.global,
            partition: server.partition,
            rounds: server.rounds,
            eps_traces: server.eps_traces,
            delta_z_refs,
        }
    }
}

impl FlAlgorithm for FedProphet {
    fn name(&self) -> &'static str {
        "FedProphet"
    }

    fn run(&self, env: &FlEnv) -> FlOutcome {
        self.run_detailed(env).into_fl_outcome()
    }
}

/// Everything the server holds between rounds — what an engine port would
/// checkpoint as its `ServerState`.
struct Server<'a> {
    env: &'a FlEnv,
    pcfg: &'a ProphetConfig,
    partition: ModulePartition,
    global: CascadeModel,
    /// One auxiliary head per non-final module.
    heads: Vec<Option<AuxHead>>,
    /// The ledger.
    rounds: Vec<ProphetRound>,
    eps_traces: Vec<Vec<f32>>,
    /// Global round counter: one per aggregation in either mode, so it is
    /// also the model version dispatches and staleness are counted in.
    round: usize,
}

/// One module's learning phase.
struct Phase {
    /// Module being learned.
    m: usize,
    /// The APA controller (module 1 pins ε₀ and has none).
    apa: Option<Apa>,
    /// ε of the version being dispatched: drawn at its first dispatch,
    /// taken at its close.
    eps: Option<f32>,
    /// ε of the last closed version (ε*, the probe's input budget).
    last_eps: f32,
    best_score: f32,
    since_best: usize,
}

impl Phase {
    /// ε of the version being dispatched, drawing it on first use.
    fn epsilon(&mut self, eps0: f32) -> f32 {
        *self.eps.get_or_insert_with(|| match self.apa.as_mut() {
            None => eps0,
            Some(a) => a.epsilon(),
        })
    }
}

/// One costed dispatch: the DMA-assigned window and its simulated round
/// trip (down-link window transfer + compute + swap traffic + up-link).
#[derive(Clone, Copy)]
struct Planned {
    assign: ModuleAssignment,
    latency: ClientLatency,
}

/// `(flat params, BN stats)` of one module as trained by one client.
type ModuleUpdate = (Vec<f32>, Vec<(Tensor, Tensor)>);

/// One client's trained dispatch.
struct ClientResult {
    client: usize,
    /// Model version (round counter) it was dispatched against.
    version: usize,
    plan: Planned,
    /// One update per module of the assigned window, from
    /// `plan.assign.current` on.
    modules: Vec<ModuleUpdate>,
    /// Trained aux head of `plan.assign.last` (absent when that is the
    /// final module).
    aux: Option<Vec<f32>>,
    weight: f32,
    loss: f32,
}

impl<'a> Server<'a> {
    fn new(env: &'a FlEnv, pcfg: &'a ProphetConfig) -> Self {
        let cfg = &env.cfg;
        let n_classes = env.data.train.n_classes();
        let partition = partition_model(
            &env.reference_specs,
            &env.input_shape,
            cfg.batch_size,
            n_classes,
            pcfg.r_min_override.unwrap_or_else(|| env.r_min()),
        );
        let n_modules = partition.num_modules();
        let mut rng = seeded_rng(cfg.seed ^ 0x9120_9127);
        let global =
            fp_nn::models::instantiate(&env.reference_specs, &env.input_shape, n_classes, &mut rng);
        let heads = (0..n_modules)
            .map(|m| {
                (m + 1 < n_modules).then(|| {
                    let (_, t) = partition.windows[m];
                    AuxHead::new(
                        &format!("aux{m}"),
                        &global.feature_shape(t),
                        n_classes,
                        &mut rng,
                    )
                })
            })
            .collect();
        Server {
            env,
            pcfg,
            partition,
            global,
            heads,
            rounds: Vec::new(),
            eps_traces: vec![Vec::new(); n_modules],
            round: 0,
        }
    }

    // ------------------------------------------------------ barrier policies

    /// One synchronous round of module `phase.m`; `true` when the phase
    /// should stop early.
    fn sync_round(&mut self, phase: &mut Phase) -> bool {
        let (env, cfg, sched) = (self.env, &self.env.cfg, &self.pcfg.sched);
        // Over-selection: sample extra clients; the round closes once
        // `clients_per_round` of them have reported.
        let target = cfg.clients_per_round;
        let n_sel = over_select_count(target, sched.over_select, cfg.n_clients);
        let ids = env.sample_round_n(self.round, n_sel);
        // DMA's FLOPs reference: the slowest member of this cohort.
        let perf_min = ids
            .iter()
            .map(|&k| prophet_availability(env, self.round, k).1)
            .fold(f64::INFINITY, f64::min);
        // Each client's duration is the hwsim latency of its DMA-assigned
        // window on its degraded device, so prophet clients (more modules)
        // take longer and can straggle past the deadline.
        let plans: Vec<Planned> = ids
            .iter()
            .map(|&k| self.plan(phase.m, k, perf_min))
            .collect();
        let lat: Vec<ClientLatency> = plans.iter().map(|p| p.latency).collect();
        let dropped = draw_dropouts(env, self.round, ids.len(), sched.dropout_p);
        let sim = simulate_round(&ids, &lat, &dropped, target, sched);
        // `ids` is ascending (`sample_round_n`).
        let jobs: Vec<(usize, Planned)> = sim
            .completed
            .iter()
            .map(|k| (*k, plans[ids.binary_search(k).expect("completed id")]))
            .collect();
        let results = self.train(phase.epsilon(cfg.eps0), &jobs);
        self.close(
            phase,
            results,
            sim.round_time_s,
            sim.stragglers.len(),
            sim.dropped_out.len(),
        )
    }

    /// The barrier-free phase of module `phase.m`: up to `max_aggs`
    /// buffer flushes on a continuous virtual clock. Module boundaries
    /// stay synchronization points — clients still in flight when the
    /// phase ends are discarded.
    fn async_phase(&mut self, phase: &mut Phase, acfg: &AsyncConfig, max_aggs: usize) {
        let (env, cfg) = (self.env, &self.env.cfg);
        // DMA's FLOPs reference: with no barrier to stretch, extra
        // modules are bounded against the slowest possible participant
        // (fleet-minimum peak at the §B.1 degradation floor) instead of a
        // round cohort's minimum.
        let perf_floor = env
            .fleet
            .iter()
            .map(|d| d.device.tflops)
            .fold(f64::INFINITY, f64::min)
            * 0.2;
        let phase_seed = cfg.seed ^ 0x00A5_F1ED ^ ((phase.m as u64 + 1) << 40);
        let mut timeline = AsyncTimeline::new(phase_seed, cfg.n_clients, acfg.concurrency);
        let mut in_flight: Vec<ClientResult> = Vec::new();
        let mut buffer: Vec<ClientResult> = Vec::new();
        let first_round = self.round;
        let mut last_clock = 0.0f64;
        while self.round - first_round < max_aggs {
            // Arm freed slots: cost, schedule, and eagerly train each
            // picked client against the current global state.
            let picked = timeline.pick_dispatches();
            if !picked.is_empty() {
                let jobs: Vec<(usize, Planned)> = picked
                    .iter()
                    .map(|&k| {
                        let plan = self.plan(phase.m, k, perf_floor);
                        timeline.schedule_finish(k, timeline.clock_s() + plan.latency.total());
                        (k, plan)
                    })
                    .collect();
                in_flight.extend(self.train(phase.epsilon(cfg.eps0), &jobs));
            }
            let (time, client) = timeline
                .next_finish()
                .expect("clients stay in flight while aggregations remain");
            let idx = in_flight
                .iter()
                .position(|r| r.client == client)
                .expect("finished client is in flight");
            buffer.push(in_flight.swap_remove(idx));
            if buffer.len() < acfg.buffer_k {
                continue;
            }
            // Flush: staleness-discounted partial averaging (Eq. 16/17
            // with weights `w_k / (1+s)^a`), in deterministic
            // (client, version) order.
            let mut results = std::mem::take(&mut buffer);
            results.sort_by_key(|r| (r.client, r.version));
            for r in &mut results {
                r.weight *= staleness_weight(self.round - r.version, acfg.staleness_exp);
            }
            let stop = self.close(phase, results, time - last_clock, 0, 0);
            last_clock = time;
            timeline.bump_version();
            if stop {
                break;
            }
        }
    }

    // ---------------------------------------------------------------- stages

    /// Costs client `k`'s dispatch for module `m` at the current version:
    /// availability draw, window assignment (`perf_ref` is DMA's `P_min`),
    /// hwsim round trip.
    fn plan(&self, m: usize, k: usize, perf_ref: f64) -> Planned {
        let (env, cfg) = (self.env, &self.env.cfg);
        let (mem, perf) = prophet_availability(env, self.round, k);
        let assign = if self.pcfg.use_dma {
            assign_modules(&self.partition, m, mem, perf, perf_ref)
        } else {
            ModuleAssignment::only(m)
        };
        // Only the window's weights ship (down and, after training, back
        // up); the (GAP→linear) aux head is negligible next to even one
        // conv atom and is not counted.
        let (f, t) = assign.atom_window(&self.partition);
        let payload = Payload::window(param_transfer_bytes(&env.reference_specs[f..t]));
        // The device with its availability overridden by the draw.
        let mut device = env.fleet[k];
        device.avail_mem_bytes = mem;
        device.avail_tflops = perf;
        let latency = assign
            .latency_model(&self.partition, cfg.batch_size, cfg.pgd_steps)
            .dispatch_round_trip(&device, cfg.local_iters, &payload);
        Planned { assign, latency }
    }

    /// Trains every `(client, plan)` job on its window against the current
    /// global state under budget `eps`.
    fn train(&self, eps: f32, jobs: &[(usize, Planned)]) -> Vec<ClientResult> {
        let (env, cfg, partition) = (self.env, &self.env.cfg, &self.partition);
        let lr = cfg.lr.at(self.round);
        // Two-level parallelism: clients fan out over `outer` worker
        // threads, and each client's kernels get the leftover `inner`
        // thread budget.
        let (outer, inner) = fp_tensor::parallel::thread_split(jobs.len());
        fp_tensor::parallel::parallel_map(jobs, outer, |_, &(k, plan)| {
            let assign = plan.assign;
            let mut model = self.global.clone();
            let (from, to) = assign.atom_window(partition);
            let is_final = assign.last == partition.num_modules() - 1;
            let mut aux = if is_final {
                None
            } else {
                self.heads[assign.last].clone()
            };
            let wtc = WindowTrainConfig {
                from_atom: from,
                to_atom: to,
                epsilon: eps,
                mu: self.pcfg.mu,
                pgd_steps: cfg.pgd_steps,
                iters: cfg.local_iters,
                batch_size: cfg.batch_size,
                lr,
                momentum: cfg.momentum,
                weight_decay: cfg.weight_decay,
                seed: cfg.seed ^ (self.round as u64) << 24 ^ k as u64,
                backend_threads: inner,
            };
            let loss = train_module_window(
                &mut model,
                aux.as_mut(),
                &env.data.train,
                &env.splits[k].indices,
                &wtc,
            );
            let modules = (assign.current..=assign.last)
                .map(|n| {
                    let (f, t) = partition.windows[n];
                    (model.flat_params_range(f, t), model.bn_stats_range(f, t))
                })
                .collect();
            ClientResult {
                client: k,
                version: self.round,
                plan,
                modules,
                aux: aux.map(|a| a.flat_params()),
                weight: env.splits[k].weight,
                loss,
            }
        })
    }

    /// Closes the current version over `results` (possibly none): ε, merge,
    /// validation, APA, ledger record, round counter. Returns whether the
    /// phase's early stop fired.
    fn close(
        &mut self,
        phase: &mut Phase,
        results: Vec<ClientResult>,
        round_time_s: f64,
        stragglers: usize,
        dropped_out: usize,
    ) -> bool {
        let (m, n) = (phase.m, results.len());
        let eps = phase.epsilon(self.env.cfg.eps0);
        phase.eps = None;
        phase.last_eps = eps;
        self.eps_traces[m].push(eps);

        let mean = |sum: f32| if n == 0 { 0.0 } else { sum / n as f32 };
        let staleness: usize = results.iter().map(|r| self.round - r.version).sum();
        // The barrier cost actually paid is the slowest aggregated client.
        let slowest = results
            .iter()
            .map(|r| r.plan.latency)
            .max_by(|a, b| a.total().total_cmp(&b.total()))
            .unwrap_or_else(ClientLatency::zero);
        if n > 0 {
            self.aggregate(&results, m);
        }
        // Validation of the cascaded prefix (w*₁ ∘ ⋯ ∘ w_m^t).
        let (vc, va) = self.validate_prefix(m);
        if self.pcfg.use_apa {
            if let Some(a) = phase.apa.as_mut() {
                a.adjust(vc, va);
            }
        }
        self.rounds.push(ProphetRound {
            round: self.round,
            module: m,
            epsilon: eps,
            train_loss: mean(results.iter().map(|r| r.loss).sum()),
            val_clean: vc,
            val_adv: va,
            latency_compute_s: slowest.compute_s,
            latency_data_s: slowest.data_access_s,
            latency_transfer_s: slowest.transfer_s,
            mean_assigned: mean(results.iter().map(|r| r.plan.assign.count() as f32).sum()),
            mean_staleness: mean(staleness as f32),
            round_time_s,
            completed: n,
            stragglers,
            dropped_out,
        });
        self.round += 1;

        let score = vc + va;
        if score > phase.best_score + 1e-4 {
            phase.best_score = score;
            phase.since_best = 0;
            return false;
        }
        phase.since_best += 1;
        phase.since_best >= self.pcfg.patience
    }

    /// Partial-average aggregation: modules by Eq. 16, aux heads by Eq. 17.
    /// Every result is a window starting at module `m`.
    fn aggregate(&mut self, results: &[ClientResult], m: usize) {
        for n in m..self.partition.num_modules() {
            // Eq. 16: S_n = clients that trained module n (M_k ≥ n).
            let of_n = || {
                results
                    .iter()
                    .filter_map(move |r| Some((r.modules.get(n - m)?, r.weight)))
            };
            let flats: Vec<(&[f32], f32)> = of_n().map(|((flat, _), w)| (&flat[..], w)).collect();
            if flats.is_empty() {
                continue;
            }
            let (f, t) = self.partition.windows[n];
            self.global
                .set_flat_params_range(&weighted_average(&flats), f, t);
            // Average BN running statistics of the window.
            let stats: Vec<(&[(Tensor, Tensor)], f32)> =
                of_n().map(|((_, bn), w)| (&bn[..], w)).collect();
            if let Some(avg) = average_bn_stats(&stats) {
                self.global.set_bn_stats_range(&avg, f, t);
            }
        }
        // Eq. 17: K_n = clients whose *last* module is n.
        for (n, head) in self.heads.iter_mut().enumerate().skip(m) {
            let aux_updates: Vec<(&[f32], f32)> = results
                .iter()
                .filter(|r| r.plan.assign.last == n)
                .filter_map(|r| Some((&r.aux.as_ref()?[..], r.weight)))
                .collect();
            if let (Some(head), false) = (head.as_mut(), aux_updates.is_empty()) {
                head.set_flat_params(&weighted_average(&aux_updates));
            }
        }
    }

    /// Validation clean/adversarial accuracy of the cascaded prefix through
    /// module `m` (its aux head is the exit; the final module uses the
    /// backbone classifier). The adversarial attack is input-space PGD with
    /// the training ε₀.
    fn validate_prefix(&mut self, m: usize) -> (f32, f32) {
        let (env, cfg) = (self.env, &self.env.cfg);
        let n = env.data.val.len().min(self.pcfg.val_samples);
        let idx: Vec<usize> = (0..n).collect();
        let (x, y) = env.data.val.batch(&idx);
        let pgd = Pgd::new(PgdConfig {
            steps: cfg.pgd_steps.max(1),
            ..PgdConfig::train_linf(cfg.eps0)
        });
        let mut rng = seeded_rng(cfg.seed ^ 0x7E57 ^ self.round as u64);
        let mut clean_and_adv = |target: &mut dyn AttackTarget| {
            let clean = fp_nn::accuracy(&target.logits(&x), &y);
            let adv_x = pgd.attack(target, &x, &y, &mut rng);
            (clean, fp_nn::accuracy(&target.logits(&adv_x), &y))
        };
        let accs = match self.heads[m].as_mut() {
            None => clean_and_adv(&mut ModelTarget::new(&mut self.global)),
            Some(head) => {
                let (_, t) = self.partition.windows[m];
                clean_and_adv(&mut ModuleTarget::new(&mut self.global, head, 0, t, 0.0))
            }
        };
        // `train` clones the global model per client: the validation
        // batch's activations must not ride along.
        self.global.clear_cache();
        accs
    }

    /// Clients probe `max‖Δz_m‖₂` of the fixed module `m` under its final
    /// input budget `eps_star` and the server averages (the `E[·]` of
    /// Eq. 11).
    ///
    /// The probes fan out like [`Server::train`]: each job attacks its own
    /// clone of the model and head in `Eval` mode, which reads parameters
    /// and BN statistics but writes neither, so the per-client maxima —
    /// summed in client order — do not depend on the worker count.
    fn probe_delta_z(&self, m: usize, eps_star: f32) -> f32 {
        let (env, cfg) = (self.env, &self.env.cfg);
        let (f, t) = self.partition.windows[m];
        let head = self.heads[m].as_ref().expect("probed module has a head");
        let probe_clients: Vec<usize> = env.sample_round(usize::MAX - m);
        let (outer, inner) = fp_tensor::parallel::thread_split(probe_clients.len());
        let worst = fp_tensor::parallel::parallel_map(&probe_clients, outer, |_, &k| {
            let backend = fp_tensor::backend_for_threads(inner);
            let mut model = self.global.clone();
            let mut head = head.clone();
            model.set_backend(&backend);
            head.set_backend(&backend);
            max_feature_perturbation(
                &mut model,
                &mut head,
                f,
                t,
                &env.data.train,
                &env.splits[k].indices,
                eps_star,
                self.pcfg.mu,
                cfg.pgd_steps,
                cfg.batch_size,
                self.pcfg.probe_batches,
                cfg.seed ^ 0x0B5E ^ k as u64,
            )
        });
        let sum: f64 = worst.iter().map(|&w| w as f64).sum();
        (sum / probe_clients.len() as f64) as f32
    }
}

/// Client `k`'s round-`t` real-time availability for FedProphet's loop —
/// memory `budget·(0.8 + 0.2u)`, performance `peak·(0.2 + 0.8u)` — drawn
/// from the per-`(round, client)` stream shared with both schedulers, so
/// a synchronous round and an async dispatch against the same model
/// version degrade a client identically.
fn prophet_availability(env: &FlEnv, t: usize, k: usize) -> (u64, f64) {
    let mut rng = env.client_rng(t, k, SALT_AVAIL);
    let mem = (env.mem_budget(k) as f64 * (0.8 + 0.2 * rng.gen::<f64>())) as u64;
    let perf = env.fleet[k].device.tflops * (0.2 + 0.8 * rng.gen::<f64>());
    (mem, perf)
}

#[cfg(test)]
pub(crate) mod testenv {
    use fp_data::{generate, partition_pathological, SynthConfig};
    use fp_fl::{FlConfig, FlEnv};
    use fp_hwsim::{sample_fleet, SamplingMode, CIFAR_POOL};
    use fp_nn::models::{vgg_atom_specs, VggConfig};

    /// A small learnable environment for FedProphet tests: three-stage
    /// tiny VGG so the partitioner produces multiple modules.
    pub fn make_env(rounds: usize, seed: u64) -> FlEnv {
        let cfg = FlConfig::fast(rounds, seed);
        let data = generate(&SynthConfig::tiny(4, 8), seed);
        let splits = partition_pathological(&data.train, cfg.n_clients, 0.8, 0.25, seed);
        let mut rng = fp_tensor::seeded_rng(seed ^ 0xF1EE7);
        let fleet = sample_fleet(&CIFAR_POOL, cfg.n_clients, SamplingMode::Balanced, &mut rng);
        let specs = vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[8, 16, 24]));
        FlEnv::new(data, splits, fleet, specs, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::testenv::make_env;
    use super::*;

    #[test]
    fn fedprophet_runs_end_to_end_and_learns() {
        // Seed retuned (3 → 4) when availability moved to per-(round,
        // client) streams: thresholds are seed-sensitive at this scale.
        let env = make_env(12, 4);
        let outcome = FedProphet::new(ProphetConfig::default()).run_detailed(&env);
        assert!(
            outcome.partition.num_modules() >= 2,
            "env must exercise multi-module cascade, got {:?}",
            outcome.partition.windows
        );
        let last = outcome.rounds.last().unwrap();
        assert!(
            last.val_clean > 0.4,
            "final clean accuracy {} too low",
            last.val_clean
        );
        assert!(
            last.val_adv > 0.2,
            "final adversarial accuracy {} too low",
            last.val_adv
        );
        // Every module produced an ε trace; module 1 pins ε₀.
        assert!(outcome.eps_traces[0]
            .iter()
            .all(|&e| (e - env.cfg.eps0).abs() < 1e-7));
        assert!(outcome.eps_traces.len() == outcome.partition.num_modules());
        // Latency was accounted.
        assert!(outcome.total_latency().total() > 0.0);
    }

    #[test]
    fn dma_assigns_more_modules_to_prophets() {
        let env = make_env(6, 11);
        let with_dma = FedProphet::new(ProphetConfig {
            rounds_per_module: Some(2),
            ..ProphetConfig::default()
        })
        .run_detailed(&env);
        let without = FedProphet::new(ProphetConfig {
            rounds_per_module: Some(2),
            use_dma: false,
            ..ProphetConfig::default()
        })
        .run_detailed(&env);
        let avg_with: f32 = with_dma.rounds.iter().map(|r| r.mean_assigned).sum::<f32>()
            / with_dma.rounds.len() as f32;
        let avg_without: f32 = without.rounds.iter().map(|r| r.mean_assigned).sum::<f32>()
            / without.rounds.len() as f32;
        assert!((avg_without - 1.0).abs() < 1e-6, "no-DMA assigns exactly 1");
        assert!(
            avg_with > avg_without,
            "DMA must assign extra modules ({avg_with} vs {avg_without})"
        );
    }

    #[test]
    fn single_module_degenerates_to_joint_training() {
        // With unlimited memory the partition is one module and FedProphet
        // trains end-to-end (paper Figure 9's right edge).
        let mut env = make_env(4, 7);
        // Force a giant budget by replacing the fleet with max-memory
        // samples (budgets derive from availability).
        for d in &mut env.fleet {
            d.avail_mem_bytes = u64::MAX / 4;
        }
        let env = fp_fl::FlEnv::new(
            env.data.clone(),
            env.splits.clone(),
            env.fleet.clone(),
            env.reference_specs.clone(),
            env.cfg,
        );
        let outcome = FedProphet::new(ProphetConfig::default()).run_detailed(&env);
        assert_eq!(outcome.partition.num_modules(), 1);
        assert!(outcome.rounds.last().unwrap().val_clean > 0.3);
    }

    #[test]
    fn run_is_deterministic() {
        let env = make_env(4, 9);
        let a = FedProphet::new(ProphetConfig::default()).run_detailed(&env);
        let b = FedProphet::new(ProphetConfig::default()).run_detailed(&env);
        assert_eq!(a.model.flat_params(), b.model.flat_params());
        assert_eq!(a.rounds.len(), b.rounds.len());
    }

    #[test]
    fn wait_all_round_time_equals_barrier_latency() {
        let env = make_env(4, 15);
        let out = FedProphet::new(ProphetConfig::default()).run_detailed(&env);
        for r in &out.rounds {
            assert_eq!(r.completed, env.cfg.clients_per_round);
            assert_eq!(r.stragglers + r.dropped_out, 0);
            let barrier = r.latency_compute_s + r.latency_data_s + r.latency_transfer_s;
            assert!(
                (r.round_time_s - barrier).abs() < 1e-9,
                "wait-all round time {} vs barrier {barrier}",
                r.round_time_s
            );
        }
    }

    #[test]
    fn async_module_windows_run_and_learn() {
        // FedProphet's module-window loop under barrier-free async
        // aggregation: staleness shows up in the ledger, every
        // aggregation merges exactly buffer_k updates, and the cascade
        // still learns.
        let env = make_env(12, 4);
        let out = FedProphet::new(ProphetConfig {
            async_agg: Some(fp_fl::AsyncConfig {
                concurrency: 4,
                buffer_k: 2,
                staleness_exp: 0.5,
                ..AsyncConfig::default()
            }),
            ..ProphetConfig::default()
        })
        .run_detailed(&env);
        assert!(out.partition.num_modules() >= 2);
        assert_eq!(out.rounds.len(), 12);
        for r in &out.rounds {
            assert_eq!(r.completed, 2, "every flush merges buffer_k updates");
            assert_eq!(r.stragglers + r.dropped_out, 0);
            assert!(r.round_time_s > 0.0);
            assert!(r.train_loss.is_finite());
        }
        assert!(
            out.rounds.iter().any(|r| r.mean_staleness > 0.0),
            "a concurrency above buffer_k must produce stale merges"
        );
        assert!(out.rounds.last().unwrap().val_clean > 0.3);
    }

    #[test]
    fn async_module_windows_are_deterministic() {
        let env = make_env(6, 9);
        let cfg = ProphetConfig {
            rounds_per_module: Some(2),
            async_agg: Some(fp_fl::AsyncConfig::default()),
            ..ProphetConfig::default()
        };
        let a = FedProphet::new(cfg).run_detailed(&env);
        let b = FedProphet::new(cfg).run_detailed(&env);
        assert_eq!(a.model.flat_params(), b.model.flat_params());
        assert_eq!(a.rounds.len(), b.rounds.len());
        for (x, y) in a.rounds.iter().zip(&b.rounds) {
            assert_eq!(x.round_time_s, y.round_time_s);
            assert_eq!(x.mean_staleness, y.mean_staleness);
        }
    }

    #[test]
    fn async_beats_wait_all_virtual_clock() {
        // The point of removing the barrier: same number of
        // aggregations, strictly less virtual wall-clock than waiting
        // for the slowest client every round.
        let env = make_env(8, 11);
        let base = ProphetConfig {
            rounds_per_module: Some(3),
            ..ProphetConfig::default()
        };
        let barrier = FedProphet::new(base).run_detailed(&env);
        let async_out = FedProphet::new(ProphetConfig {
            async_agg: Some(fp_fl::AsyncConfig {
                concurrency: env.cfg.clients_per_round,
                buffer_k: 2,
                staleness_exp: 0.5,
                ..AsyncConfig::default()
            }),
            ..base
        })
        .run_detailed(&env);
        assert_eq!(barrier.rounds.len(), async_out.rounds.len());
        assert!(
            async_out.total_round_time() < barrier.total_round_time(),
            "async must shrink virtual wall-clock: {} vs {}",
            async_out.total_round_time(),
            barrier.total_round_time()
        );
    }

    #[test]
    fn deadline_interacts_with_dma_assignment() {
        // A tight deadline cuts stragglers, and the virtual wall-clock is
        // strictly below the barrier cost of waiting for every client —
        // the heterogeneity-aware scheduling the paper's §3 motivates.
        let env = make_env(8, 11);
        let base = ProphetConfig {
            rounds_per_module: Some(3),
            ..ProphetConfig::default()
        };
        let barrier = FedProphet::new(base).run_detailed(&env);
        let sched = FedProphet::new(ProphetConfig {
            sched: fp_fl::SchedConfig {
                over_select: 1.5,
                dropout_p: 0.1,
                deadline: fp_fl::DeadlinePolicy::MedianMultiple(1.0),
                min_completions: 1,
            },
            ..base
        })
        .run_detailed(&env);
        let cut: usize = sched.rounds.iter().map(|r| r.stragglers).sum();
        assert!(cut > 0, "median deadline must cut some stragglers");
        assert!(
            sched.total_round_time() < barrier.total_round_time(),
            "deadline scheduling must shrink virtual wall-clock: {} vs {}",
            sched.total_round_time(),
            barrier.total_round_time()
        );
        // Every aggregated round still made progress.
        for r in &sched.rounds {
            assert!(r.completed >= 1);
            assert!(r.train_loss.is_finite());
        }
    }

    /// Runs `cfg` far enough to be rejected: validation is the first thing
    /// `run_detailed` does, before the partition or any client exists.
    fn rejected(cfg: ProphetConfig) {
        FedProphet::new(cfg).run_detailed(&make_env(2, 1));
    }

    fn with_async(acfg: AsyncConfig) -> ProphetConfig {
        ProphetConfig {
            async_agg: Some(acfg),
            ..ProphetConfig::default()
        }
    }

    #[test]
    fn default_and_async_default_configs_validate() {
        let env = make_env(2, 1);
        ProphetConfig::default().validate(&env);
        with_async(AsyncConfig::default()).validate(&env);
    }

    #[test]
    #[should_panic(expected = "field `mu`")]
    fn negative_mu_rejected() {
        rejected(ProphetConfig {
            mu: -1e-4,
            ..ProphetConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "field `alpha0`")]
    fn zero_alpha0_rejected() {
        rejected(ProphetConfig {
            alpha0: 0.0,
            ..ProphetConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "field `delta_alpha`")]
    fn zero_delta_alpha_rejected() {
        rejected(ProphetConfig {
            delta_alpha: 0.0,
            ..ProphetConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "field `gamma`")]
    fn negative_gamma_rejected() {
        rejected(ProphetConfig {
            gamma: -0.05,
            ..ProphetConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "field `rounds_per_module`")]
    fn zero_rounds_per_module_rejected() {
        rejected(ProphetConfig {
            rounds_per_module: Some(0),
            ..ProphetConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "field `probe_batches`")]
    fn zero_probe_batches_rejected() {
        rejected(ProphetConfig {
            probe_batches: 0,
            ..ProphetConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "field `val_samples`")]
    fn zero_val_samples_rejected() {
        rejected(ProphetConfig {
            val_samples: 0,
            ..ProphetConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "over_select must be >= 1")]
    fn sched_is_validated_at_the_door() {
        rejected(ProphetConfig {
            sched: SchedConfig {
                over_select: 0.5,
                ..SchedConfig::default()
            },
            ..ProphetConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "field `async_agg.timeout_s`")]
    fn async_timeout_rejected_not_ignored() {
        rejected(with_async(AsyncConfig {
            timeout_s: Some(1.0),
            ..AsyncConfig::default()
        }));
    }

    #[test]
    #[should_panic(expected = "field `async_agg.dropout_p`")]
    fn async_dropout_rejected_not_ignored() {
        rejected(with_async(AsyncConfig {
            dropout_p: 0.1,
            ..AsyncConfig::default()
        }));
    }

    #[test]
    #[should_panic(expected = "field `async_agg.adaptive_buffer`")]
    fn async_adaptive_buffer_rejected_not_ignored() {
        rejected(with_async(AsyncConfig {
            adaptive_buffer: Some((1, 4)),
            ..AsyncConfig::default()
        }));
    }

    #[test]
    #[should_panic(expected = "field `async_agg.buffer_k`")]
    fn async_buffer_above_fleet_rejected() {
        rejected(with_async(AsyncConfig {
            concurrency: 8,
            buffer_k: 9,
            ..AsyncConfig::default()
        }));
    }
}
