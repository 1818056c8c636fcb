//! The full FedProphet federated loop (paper Algorithm 2).

use crate::apa::Apa;
use crate::aux_head::AuxHead;
use crate::dma::{assign_modules, ModuleAssignment};
use crate::module_target::ModuleTarget;
use crate::partition::{partition_model, ModulePartition};
use crate::trainer::{max_feature_perturbation, train_module_window, WindowTrainConfig};
use fp_attack::{AttackTarget, ModelTarget, Pgd, PgdConfig};
use fp_fl::async_sched::{staleness_weight, AsyncConfig, AsyncTimeline};
use fp_fl::sched::{draw_dropouts, over_select_count, simulate_round, SchedConfig, SALT_AVAIL};
use fp_fl::{FlAlgorithm, FlEnv, FlOutcome, RoundRecord};
use fp_hwsim::{param_transfer_bytes, ClientLatency, LatencyModel, Payload, TrainingPassProfile};
use fp_nn::CascadeModel;
use fp_tensor::{argmax_rows, seeded_rng, Tensor};
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
    /// are discarded).
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
    pub fn run_detailed(&self, env: &FlEnv) -> ProphetOutcome {
        let cfg = &env.cfg;
        let pcfg = &self.config;
        let n_classes = env.data.train.n_classes();
        let partition = partition_model(
            &env.reference_specs,
            &env.input_shape,
            cfg.batch_size,
            n_classes,
            pcfg.r_min_override.unwrap_or_else(|| env.r_min()),
        );
        let n_modules = partition.num_modules();
        let rounds_per_module = pcfg
            .rounds_per_module
            .unwrap_or((cfg.rounds / n_modules).max(1));

        let mut rng = seeded_rng(cfg.seed ^ 0x9120_9127);
        let mut global =
            fp_nn::models::instantiate(&env.reference_specs, &env.input_shape, n_classes, &mut rng);
        // One auxiliary head per non-final module.
        let mut heads: Vec<Option<AuxHead>> = (0..n_modules)
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

        let mut records = Vec::new();
        let mut eps_traces: Vec<Vec<f32>> = vec![Vec::new(); n_modules];
        let mut delta_z_refs: Vec<f32> = Vec::new();
        let mut global_round = 0usize;
        // ε reference for the *current* module's input: ε₀ for module 1.
        let mut eps_ref = cfg.eps0;
        let mut prev_ratio: Option<(f32, f32)> = None;

        #[allow(clippy::needless_range_loop)] // index shared across several buffers
        for m in 0..n_modules {
            let mut apa = if m == 0 {
                None
            } else {
                let mut a = Apa::new(pcfg.alpha0, pcfg.delta_alpha, pcfg.gamma, eps_ref);
                if let Some((c, adv)) = prev_ratio {
                    a.set_reference_ratio(c, adv);
                }
                Some(a)
            };
            let mut best_score = f32::NEG_INFINITY;
            let mut since_best = 0usize;
            let mut last_eps = cfg.eps0;

            if let Some(acfg) = pcfg.async_agg {
                // ---------------- barrier-free async module phase ----------------
                acfg.validate();
                assert!(
                    acfg.buffer_k <= cfg.n_clients,
                    "buffer_k above n_clients deadlocks the module phase"
                );
                // DMA's FLOPs reference: with no barrier to stretch,
                // extra modules are bounded against the slowest possible
                // participant (fleet-minimum peak at the §B.1 degradation
                // floor) instead of a round cohort's minimum.
                let perf_floor = env
                    .fleet
                    .iter()
                    .map(|d| d.device.tflops)
                    .fold(f64::INFINITY, f64::min)
                    * 0.2;
                let phase_seed = cfg.seed ^ 0x00A5_F1ED ^ ((m as u64 + 1) << 40);
                let mut timeline = AsyncTimeline::new(phase_seed, cfg.n_clients, acfg.concurrency);
                struct PhasePending {
                    client: usize,
                    version: usize,
                    latency: ClientLatency,
                    assigned: usize,
                    result: ClientResult,
                }
                let mut in_flight: Vec<PhasePending> = Vec::new();
                let mut buffer: Vec<PhasePending> = Vec::new();
                let mut aggs = 0usize;
                let mut last_clock = 0.0f64;
                // ε of the current version, drawn lazily at its first
                // dispatch batch — exactly one `Apa::epsilon()` trace
                // entry per aggregation, matching the sync loop's
                // one-per-round discipline.
                let mut cur_eps: Option<f32> = None;
                while aggs < rounds_per_module {
                    // Arm freed slots: cost, schedule, and eagerly train
                    // each picked client on its DMA-assigned window
                    // against the current global state.
                    let picked = timeline.pick_dispatches();
                    if !picked.is_empty() {
                        let eps = *cur_eps.get_or_insert_with(|| match apa.as_mut() {
                            None => cfg.eps0,
                            Some(a) => a.epsilon(),
                        });
                        let lr = cfg.lr.at(global_round);
                        let mut assigns = Vec::with_capacity(picked.len());
                        let mut lats = Vec::with_capacity(picked.len());
                        for &k in &picked {
                            let (mem, perf) = prophet_availability(env, global_round, k);
                            let assign = if pcfg.use_dma {
                                assign_modules(&partition, m, mem, perf, perf_floor)
                            } else {
                                ModuleAssignment {
                                    current: m,
                                    last: m,
                                }
                            };
                            let (model, payload) =
                                window_latency_model(env, &partition, assign, cfg);
                            let lat = model.dispatch_round_trip(
                                &degraded_sample(env, k, mem, perf),
                                cfg.local_iters,
                                &payload,
                            );
                            timeline.schedule_finish(k, timeline.clock_s() + lat.total());
                            assigns.push(assign);
                            lats.push(lat);
                        }
                        let results = run_clients(
                            env,
                            &global,
                            &heads,
                            &partition,
                            &assigns,
                            &picked,
                            eps,
                            lr,
                            global_round,
                            pcfg,
                        );
                        for ((&k, (&assign, lat)), result) in
                            picked.iter().zip(assigns.iter().zip(lats)).zip(results)
                        {
                            in_flight.push(PhasePending {
                                client: k,
                                version: aggs,
                                latency: lat,
                                assigned: assign.count(),
                                result,
                            });
                        }
                    }
                    let (time, client) = timeline
                        .next_finish()
                        .expect("clients stay in flight while aggregations remain");
                    let idx = in_flight
                        .iter()
                        .position(|p| p.client == client)
                        .expect("finished client is in flight");
                    buffer.push(in_flight.swap_remove(idx));
                    if buffer.len() < acfg.buffer_k {
                        continue;
                    }
                    // Flush: staleness-discounted partial averaging
                    // (Eq. 16/17 with weights `w_k / (1+s)^a`), in
                    // deterministic (client, version) order.
                    let mut entries = std::mem::take(&mut buffer);
                    entries.sort_by_key(|p| (p.client, p.version));
                    let stalenesses: Vec<usize> =
                        entries.iter().map(|p| aggs - p.version).collect();
                    let mean_staleness =
                        stalenesses.iter().sum::<usize>() as f32 / entries.len() as f32;
                    let mean_assigned = entries.iter().map(|p| p.assigned as f32).sum::<f32>()
                        / entries.len() as f32;
                    let slowest = entries
                        .iter()
                        .map(|p| p.latency)
                        .max_by(|a, b| a.total().partial_cmp(&b.total()).expect("finite latency"))
                        .expect("non-empty flush");
                    let mean_loss =
                        entries.iter().map(|p| p.result.loss).sum::<f32>() / entries.len() as f32;
                    let results: Vec<ClientResult> = entries
                        .into_iter()
                        .zip(&stalenesses)
                        .map(|(p, &s)| {
                            let mut r = p.result;
                            r.weight *= staleness_weight(s, acfg.staleness_exp);
                            r
                        })
                        .collect();
                    aggregate(&mut global, &mut heads, &partition, &results, m, n_modules);
                    // Record the ε the dispatches of this version used
                    // (merged updates from older versions trained under
                    // their own, earlier ε — inherent to staleness).
                    let eps = cur_eps.take().unwrap_or_else(|| match apa.as_mut() {
                        None => cfg.eps0,
                        Some(a) => a.epsilon(),
                    });
                    last_eps = eps;
                    eps_traces[m].push(eps);
                    let (vc, va) = validate_prefix(
                        &mut global,
                        &mut heads,
                        &partition,
                        m,
                        env,
                        pcfg.val_samples,
                        global_round,
                    );
                    if pcfg.use_apa {
                        if let Some(a) = apa.as_mut() {
                            a.adjust(vc, va);
                        }
                    }
                    records.push(ProphetRound {
                        round: global_round,
                        module: m,
                        epsilon: eps,
                        train_loss: mean_loss,
                        val_clean: vc,
                        val_adv: va,
                        latency_compute_s: slowest.compute_s,
                        latency_data_s: slowest.data_access_s,
                        latency_transfer_s: slowest.transfer_s,
                        mean_assigned,
                        mean_staleness,
                        round_time_s: time - last_clock,
                        completed: results.len(),
                        stragglers: 0,
                        dropped_out: 0,
                    });
                    last_clock = time;
                    aggs += 1;
                    global_round += 1;
                    timeline.bump_version();

                    let score = vc + va;
                    if score > best_score + 1e-4 {
                        best_score = score;
                        since_best = 0;
                    } else {
                        since_best += 1;
                        if since_best >= pcfg.patience {
                            break;
                        }
                    }
                }
                // Clients still in flight at the module boundary are
                // discarded: module m is fixed before m+1 dispatches.
            } else {
                for _ in 0..rounds_per_module {
                    let eps = match apa.as_mut() {
                        None => cfg.eps0,
                        Some(a) => a.epsilon(),
                    };
                    last_eps = eps;
                    eps_traces[m].push(eps);

                    // Over-selection: sample extra clients; the round closes
                    // once `clients_per_round` of them have reported.
                    let target = cfg.clients_per_round;
                    let n_sel = over_select_count(target, pcfg.sched.over_select, cfg.n_clients);
                    let ids = env.sample_round_n(global_round, n_sel);
                    // Per-(round, client) real-time availability (paper §B.1
                    // degrade), from the stream shared with the schedulers.
                    let avail: Vec<(u64, f64)> = ids
                        .iter()
                        .map(|&k| prophet_availability(env, global_round, k))
                        .collect();
                    let perf_min = avail.iter().map(|&(_, p)| p).fold(f64::INFINITY, f64::min);
                    let assignments: Vec<ModuleAssignment> = avail
                        .iter()
                        .map(|&(mem, perf)| {
                            if pcfg.use_dma {
                                assign_modules(&partition, m, mem, perf, perf_min)
                            } else {
                                ModuleAssignment {
                                    current: m,
                                    last: m,
                                }
                            }
                        })
                        .collect();

                    // Virtual-time round simulation: each client's duration is
                    // the hwsim latency of its DMA-assigned window on its
                    // degraded device, so prophet clients (more modules) take
                    // longer and can straggle past the deadline.
                    let lat = client_latencies(env, &partition, &assignments, &ids, &avail, cfg);
                    let dropped = draw_dropouts(env, global_round, ids.len(), pcfg.sched.dropout_p);
                    let sim = simulate_round(&ids, &lat, &dropped, target, &pcfg.sched);
                    let cidx: Vec<usize> = sim
                        .completed
                        .iter()
                        .map(|k| ids.iter().position(|x| x == k).expect("completed id"))
                        .collect();
                    let c_assignments: Vec<ModuleAssignment> =
                        cidx.iter().map(|&i| assignments[i]).collect();

                    let lr = cfg.lr.at(global_round);
                    let results = run_clients(
                        env,
                        &global,
                        &heads,
                        &partition,
                        &c_assignments,
                        &sim.completed,
                        eps,
                        lr,
                        global_round,
                        pcfg,
                    );
                    let mean_loss = if results.is_empty() {
                        0.0
                    } else {
                        results.iter().map(|r| r.loss).sum::<f32>() / results.len() as f32
                    };

                    if !results.is_empty() {
                        aggregate(&mut global, &mut heads, &partition, &results, m, n_modules);
                    }

                    // Validation of the cascaded prefix (w*₁ ∘ ⋯ ∘ w_m^t).
                    let (vc, va) = validate_prefix(
                        &mut global,
                        &mut heads,
                        &partition,
                        m,
                        env,
                        pcfg.val_samples,
                        global_round,
                    );
                    if pcfg.use_apa {
                        if let Some(a) = apa.as_mut() {
                            a.adjust(vc, va);
                        }
                    }

                    // Latency accounting: the barrier cost actually paid is
                    // the slowest aggregated client.
                    let mean_assigned = if c_assignments.is_empty() {
                        0.0
                    } else {
                        c_assignments.iter().map(|a| a.count() as f32).sum::<f32>()
                            / c_assignments.len() as f32
                    };
                    records.push(ProphetRound {
                        round: global_round,
                        module: m,
                        epsilon: eps,
                        train_loss: mean_loss,
                        val_clean: vc,
                        val_adv: va,
                        latency_compute_s: sim.slowest_completed.compute_s,
                        latency_data_s: sim.slowest_completed.data_access_s,
                        latency_transfer_s: sim.slowest_completed.transfer_s,
                        mean_assigned,
                        mean_staleness: 0.0,
                        round_time_s: sim.round_time_s,
                        completed: sim.completed.len(),
                        stragglers: sim.stragglers.len(),
                        dropped_out: sim.dropped_out.len(),
                    });
                    global_round += 1;

                    let score = vc + va;
                    if score > best_score + 1e-4 {
                        best_score = score;
                        since_best = 0;
                    } else {
                        since_best += 1;
                        if since_best >= pcfg.patience {
                            break;
                        }
                    }
                }
            }

            // Fix module m: record C*/A* and probe max‖Δz_m‖ for the next
            // module's APA reference (Eq. 11).
            let (c_star, a_star) = validate_prefix(
                &mut global,
                &mut heads,
                &partition,
                m,
                env,
                pcfg.val_samples,
                global_round,
            );
            prev_ratio = Some((c_star, a_star));
            if m + 1 < n_modules {
                eps_ref = probe_delta_z(env, &global, &heads, &partition, m, last_eps, pcfg);
                delta_z_refs.push(eps_ref);
            }
        }

        ProphetOutcome {
            model: global,
            partition,
            rounds: records,
            eps_traces,
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

/// `(module index, window flat params, window BN stats)` as trained by
/// one client.
type ModuleUpdate = (usize, Vec<f32>, Vec<(Tensor, Tensor)>);

/// A borrowed module contribution during aggregation: flat params, BN
/// stats, FedAvg weight.
type Contribution<'a> = (&'a Vec<f32>, &'a [(Tensor, Tensor)], f32);

/// One client's round result.
struct ClientResult {
    /// Per-module updates of the assigned window.
    modules: Vec<ModuleUpdate>,
    /// Trained aux head of the last assigned module (absent when it is
    /// the final module).
    aux: Option<(usize, Vec<f32>)>,
    weight: f32,
    loss: f32,
}

#[allow(clippy::too_many_arguments)]
fn run_clients(
    env: &FlEnv,
    global: &CascadeModel,
    heads: &[Option<AuxHead>],
    partition: &ModulePartition,
    assignments: &[ModuleAssignment],
    ids: &[usize],
    eps: f32,
    lr: f32,
    round: usize,
    pcfg: &ProphetConfig,
) -> Vec<ClientResult> {
    let cfg = &env.cfg;
    let jobs: Vec<(usize, ModuleAssignment)> = ids
        .iter()
        .copied()
        .zip(assignments.iter().copied())
        .collect();
    // Two-level parallelism: clients fan out over `outer` worker threads,
    // and each client's kernels get the leftover `inner` thread budget.
    let (outer, inner) = fp_tensor::parallel::thread_split(jobs.len());
    fp_tensor::parallel::parallel_map(&jobs, outer, |_, &(k, assign)| {
        let mut model = global.clone();
        let (from, to) = assign.atom_window(partition);
        let is_final = assign.last == partition.num_modules() - 1;
        let mut aux = if is_final {
            None
        } else {
            heads[assign.last].clone()
        };
        let wtc = WindowTrainConfig {
            from_atom: from,
            to_atom: to,
            epsilon: eps,
            mu: pcfg.mu,
            pgd_steps: cfg.pgd_steps,
            iters: cfg.local_iters,
            batch_size: cfg.batch_size,
            lr,
            momentum: cfg.momentum,
            weight_decay: cfg.weight_decay,
            seed: cfg.seed ^ (round as u64) << 24 ^ k as u64,
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
                (n, model.flat_params_range(f, t), model.bn_stats_range(f, t))
            })
            .collect();
        ClientResult {
            modules,
            aux: aux.map(|a| (assign.last, a.flat_params())),
            weight: env.splits[k].weight,
            loss,
        }
    })
}

/// Partial-average aggregation: modules by Eq. 16, aux heads by Eq. 17.
fn aggregate(
    global: &mut CascadeModel,
    heads: &mut [Option<AuxHead>],
    partition: &ModulePartition,
    results: &[ClientResult],
    m: usize,
    n_modules: usize,
) {
    for n in m..n_modules {
        // Eq. 16: S_n = clients that trained module n (M_k ≥ n).
        let contributions: Vec<Contribution<'_>> = results
            .iter()
            .flat_map(|r| {
                r.modules
                    .iter()
                    .filter(|(idx, _, _)| *idx == n)
                    .map(|(_, flat, bn)| (flat, bn.as_slice(), r.weight))
            })
            .collect();
        if contributions.is_empty() {
            continue;
        }
        let updates: Vec<(Vec<f32>, f32)> = contributions
            .iter()
            .map(|(flat, _, w)| ((*flat).clone(), *w))
            .collect();
        let avg = fp_fl::aggregate::weighted_average(&updates);
        let (f, t) = partition.windows[n];
        global.set_flat_params_range(&avg, f, t);
        // Average BN running statistics of the window.
        let total: f32 = contributions.iter().map(|(_, _, w)| *w).sum();
        if !contributions[0].1.is_empty() {
            let mut means: Vec<Tensor> = contributions[0]
                .1
                .iter()
                .map(|(mean, _)| Tensor::zeros(mean.shape()))
                .collect();
            let mut vars: Vec<Tensor> = contributions[0]
                .1
                .iter()
                .map(|(_, var)| Tensor::zeros(var.shape()))
                .collect();
            for (_, bn, w) in &contributions {
                let wn = *w / total;
                for (i, (mean, var)) in bn.iter().enumerate() {
                    means[i].axpy(wn, mean);
                    vars[i].axpy(wn, var);
                }
            }
            let stats: Vec<(Tensor, Tensor)> = means.into_iter().zip(vars).collect();
            global.set_bn_stats_range(&stats, f, t);
        }
    }
    // Eq. 17: K_n = clients whose *last* module is n.
    #[allow(clippy::needless_range_loop)] // index shared across several buffers
    for n in m..n_modules.saturating_sub(1) {
        let aux_updates: Vec<(Vec<f32>, f32)> = results
            .iter()
            .filter_map(|r| {
                r.aux
                    .as_ref()
                    .filter(|(idx, _)| *idx == n)
                    .map(|(_, flat)| (flat.clone(), r.weight))
            })
            .collect();
        if !aux_updates.is_empty() {
            let avg = fp_fl::aggregate::weighted_average(&aux_updates);
            if let Some(head) = heads[n].as_mut() {
                head.set_flat_params(&avg);
            }
        }
    }
}

/// Validation clean/adversarial accuracy of the cascaded prefix through
/// module `m` (its aux head is the exit; the final module uses the
/// backbone classifier). The adversarial attack is input-space PGD with
/// the training ε₀.
fn validate_prefix(
    global: &mut CascadeModel,
    heads: &mut [Option<AuxHead>],
    partition: &ModulePartition,
    m: usize,
    env: &FlEnv,
    val_samples: usize,
    round: usize,
) -> (f32, f32) {
    let n = env.data.val.len().min(val_samples);
    let idx: Vec<usize> = (0..n).collect();
    let (x, y) = env.data.val.batch(&idx);
    let cfg = &env.cfg;
    let pgd = Pgd::new(PgdConfig {
        steps: cfg.pgd_steps.max(1),
        ..PgdConfig::train_linf(cfg.eps0)
    });
    let mut rng = seeded_rng(cfg.seed ^ 0x7E57 ^ round as u64);
    let (_, t) = partition.windows[m];
    let is_final = m + 1 == partition.num_modules();
    let accs = if is_final {
        let mut target = ModelTarget::new(global);
        let clean = accuracy_of(&mut target, &x, &y);
        let adv_x = pgd.attack(&mut target, &x, &y, &mut rng);
        let adv = accuracy_of(&mut target, &adv_x, &y);
        (clean, adv)
    } else {
        let head = heads[m].as_mut().expect("non-final module has a head");
        let mut target = ModuleTarget::new(global, head, 0, t, 0.0);
        let clean = accuracy_of(&mut target, &x, &y);
        let adv_x = pgd.attack(&mut target, &x, &y, &mut rng);
        let adv = accuracy_of(&mut target, &adv_x, &y);
        (clean, adv)
    };
    // `run_clients` clones `global` per client: the validation batch's
    // activations must not ride along.
    global.clear_cache();
    accs
}

fn accuracy_of(target: &mut dyn AttackTarget, x: &Tensor, y: &[usize]) -> f32 {
    let logits = target.logits(x);
    let preds = argmax_rows(&logits);
    preds.iter().zip(y).filter(|(p, l)| p == l).count() as f32 / y.len() as f32
}

/// Clients probe `max‖Δz_m‖₂` of the fixed module `m` and the server
/// averages (the `E[·]` of Eq. 11).
///
/// The probes fan out like [`run_clients`]: each job attacks its own clone
/// of the model and head in `Eval` mode, which reads parameters and BN
/// statistics but writes neither, so the per-client maxima — summed in
/// client order — do not depend on the worker count.
fn probe_delta_z(
    env: &FlEnv,
    global: &CascadeModel,
    heads: &[Option<AuxHead>],
    partition: &ModulePartition,
    m: usize,
    eps_star: f32,
    pcfg: &ProphetConfig,
) -> f32 {
    let cfg = &env.cfg;
    let (f, t) = partition.windows[m];
    let head = heads[m].as_ref().expect("probed module has a head");
    let probe_clients: Vec<usize> = env.sample_round(usize::MAX - m);
    let (outer, inner) = fp_tensor::parallel::thread_split(probe_clients.len());
    let worst = fp_tensor::parallel::parallel_map(&probe_clients, outer, |_, &k| {
        let backend = fp_tensor::backend_for_threads(inner);
        let mut model = global.clone();
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
            pcfg.mu,
            cfg.pgd_steps,
            cfg.batch_size,
            pcfg.probe_batches,
            cfg.seed ^ 0x0B5E ^ k as u64,
        )
    });
    let sum: f64 = worst.iter().map(|&w| w as f64).sum();
    (sum / probe_clients.len() as f64) as f32
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

/// The hwsim cost description of one DMA-assigned module window — the
/// latency model plus the window-weights payload that crosses the
/// client's link.
fn window_latency_model(
    env: &FlEnv,
    partition: &ModulePartition,
    assign: ModuleAssignment,
    cfg: &fp_fl::FlConfig,
) -> (LatencyModel, Payload) {
    let mem_req: u64 = (assign.current..=assign.last)
        .map(|n| partition.mem_bytes[n])
        .sum();
    let macs: u64 = (assign.current..=assign.last)
        .map(|n| partition.fwd_macs[n])
        .sum();
    let (f, t) = assign.atom_window(partition);
    let model = LatencyModel {
        mem_req_bytes: mem_req,
        fwd_macs_per_sample: macs,
        batch: cfg.batch_size,
        profile: TrainingPassProfile::adversarial(cfg.pgd_steps),
    };
    // Only the window's weights ship (down and, after training, back up);
    // the (GAP→linear) aux head is negligible next to even one conv atom
    // and is not counted.
    let payload = Payload::window(param_transfer_bytes(&env.reference_specs[f..t]));
    (model, payload)
}

/// Client `k`'s device sample with its availability overridden by the
/// round's degradation draw.
fn degraded_sample(env: &FlEnv, k: usize, mem: u64, perf: f64) -> fp_hwsim::DeviceSample {
    let mut sample = env.fleet[k];
    sample.avail_mem_bytes = mem;
    sample.avail_tflops = perf;
    sample
}

/// Per-selected-client dispatch latency over the DMA-assigned window
/// (down-link window transfer + compute + swap traffic + up-link update
/// transfer) — the durations fed to the round's virtual-time event queue.
fn client_latencies(
    env: &FlEnv,
    partition: &ModulePartition,
    assignments: &[ModuleAssignment],
    ids: &[usize],
    avail: &[(u64, f64)],
    cfg: &fp_fl::FlConfig,
) -> Vec<ClientLatency> {
    ids.iter()
        .zip(assignments.iter())
        .zip(avail.iter())
        .map(|((&k, assign), &(mem_avail, perf))| {
            let (model, payload) = window_latency_model(env, partition, *assign, cfg);
            model.dispatch_round_trip(
                &degraded_sample(env, k, mem_avail, perf),
                cfg.local_iters,
                &payload,
            )
        })
        .collect()
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
}
