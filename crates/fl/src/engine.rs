//! The federated simulation environment.

use crate::config::FlConfig;
use crate::metrics::FlOutcome;
use fp_attack::{split_accuracy, Pgd, PgdConfig};
use fp_data::{ClientSplit, SynthDataset};
use fp_hwsim::{
    forward_macs, model_mem_req, param_transfer_bytes, sample_fleet, Device, DeviceSample,
    LatencyModel, SamplingMode, TrainingPassProfile,
};
use fp_nn::spec::AtomSpec;
use fp_nn::CascadeModel;
use fp_tensor::{seeded_rng, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// A federated learning algorithm (jFAT, the baselines, FedProphet).
pub trait FlAlgorithm {
    /// Human-readable name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Runs the algorithm to completion.
    fn run(&self, env: &FlEnv) -> FlOutcome;
}

/// The shared simulation environment: data, per-client splits, sampled
/// devices, and per-client memory budgets.
///
/// Memory budgets map the full-scale systematic-heterogeneity story onto
/// the (smaller) trainable models: client `k`'s budget is
/// `ρ_k · MemReq(reference model)` with
/// `ρ_k = ρ_min + (1 − ρ_min) · avail_mem_k / max_avail_mem`, so the
/// *relative* memory ordering of the sampled devices is preserved and the
/// most constrained clients sit at `ρ_min` (the paper's 20 % scenario,
/// §7.2).
///
/// `reference_specs`, `input_shape` and `cfg.batch_size` are read at
/// construction: the budgets and the full model's cost facts
/// ([`FlEnv::full_mem_req`], [`FlEnv::full_model_cost`],
/// [`FlEnv::model_param_bytes`]) are derived from them once, so every
/// dispatch reads three stored words instead of re-walking the specs.
/// Changing those fields afterwards leaves the stored facts stale (a
/// debug build asserts they still match on every read).
pub struct FlEnv {
    /// Train/val/test data.
    pub data: SynthDataset,
    /// Per-client sample indices and FedAvg weights.
    pub splits: Vec<ClientSplit>,
    /// Per-client sampled devices (availability refreshed per round by the
    /// algorithms that need it).
    pub fleet: Vec<DeviceSample>,
    /// Hyperparameters.
    pub cfg: FlConfig,
    /// Reference (full) model atom specs, used for budget scaling.
    pub reference_specs: Vec<AtomSpec>,
    /// Per-sample input shape.
    pub input_shape: Vec<usize>,
    /// Per-client memory budgets in bytes (tiny-scale).
    budgets: Vec<u64>,
    /// Cost facts of the full reference model, fixed at construction.
    full: FullModel,
    /// When set, per-client state (device sample, weight, budget) is a
    /// pure function of `(seed, id)` computed on first touch instead of
    /// being held in the O(N) `splits`/`fleet`/`budgets` vectors (which
    /// stay empty). See [`FlEnv::lazy`].
    lazy: Option<LazyClients>,
}

/// The derivation rules for a lazily-materialized fleet.
struct LazyClients {
    pool: Vec<Device>,
    mode: SamplingMode,
    /// Pool-wide availability bounds (bytes), for budget scaling without
    /// ever materializing the whole fleet.
    lo_avail: f64,
    hi_avail: f64,
}

/// What training and shipping the full reference model costs: constant
/// for an environment's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FullModel {
    /// `model_mem_req(..).total()` at the configured batch size.
    mem: u64,
    /// Forward MACs per sample.
    fwd_macs: u64,
    /// Serialized parameter bytes.
    param_bytes: u64,
}

impl FullModel {
    fn of(specs: &[AtomSpec], input_shape: &[usize], batch: usize) -> Self {
        FullModel {
            mem: model_mem_req(specs, input_shape, batch).total(),
            fwd_macs: forward_macs(specs, input_shape),
            param_bytes: param_transfer_bytes(specs),
        }
    }
}

/// Domain-separation salt for per-client lazy device derivation.
const SALT_FLEET: u64 = 0xF1EE_7C11;
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

impl FlEnv {
    /// Assembles an environment.
    ///
    /// # Panics
    ///
    /// Panics if `splits`/`fleet` sizes disagree with `cfg.n_clients`.
    pub fn new(
        data: SynthDataset,
        splits: Vec<ClientSplit>,
        fleet: Vec<DeviceSample>,
        reference_specs: Vec<AtomSpec>,
        cfg: FlConfig,
    ) -> Self {
        cfg.validate();
        assert_eq!(splits.len(), cfg.n_clients, "split count mismatch");
        assert_eq!(fleet.len(), cfg.n_clients, "fleet size mismatch");
        // Reject non-costable devices here, with the field named, instead
        // of panicking on a non-finite duration deep in the event loop.
        for s in &fleet {
            s.device.validate();
        }
        let input_shape = data.train.sample_shape().to_vec();
        let full = FullModel::of(&reference_specs, &input_shape, cfg.batch_size);
        let budgets = scale_budgets(&fleet, full.mem);
        FlEnv {
            data,
            splits,
            fleet,
            cfg,
            reference_specs,
            input_shape,
            budgets,
            full,
            lazy: None,
        }
    }

    /// Assembles an environment whose per-client state is **lazily
    /// materialized**: no `splits`/`fleet`/`budgets` vectors are
    /// allocated (they stay empty), and [`FlEnv::client_device`] /
    /// [`FlEnv::client_weight`] / [`FlEnv::mem_budget`] derive client
    /// `k`'s state from `(seed, k)` on first touch. Resident memory is
    /// therefore independent of `cfg.n_clients`, which is what lets the
    /// virtual-time schedulers drive 10⁵–10⁶-client fleets.
    ///
    /// Client weights are uniform (`1/N`) and no per-client data split
    /// exists; only the scheduler-facing accessors understand lazy mode.
    /// Algorithms that train on client data (every baseline and
    /// FedProphet) read it through [`FlEnv::client_indices`], which
    /// panics on a lazy environment.
    pub fn lazy(
        data: SynthDataset,
        pool: &[Device],
        mode: SamplingMode,
        reference_specs: Vec<AtomSpec>,
        cfg: FlConfig,
    ) -> Self {
        cfg.validate();
        assert!(!pool.is_empty(), "empty device pool");
        for d in pool {
            d.validate();
        }
        let input_shape = data.train.sample_shape().to_vec();
        let full = FullModel::of(&reference_specs, &input_shape, cfg.batch_size);
        const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
        let lo = pool.iter().map(|d| d.mem_gb).fold(f64::MAX, f64::min);
        let hi = pool.iter().map(|d| d.mem_gb).fold(0.0, f64::max);
        let lazy = LazyClients {
            pool: pool.to_vec(),
            mode,
            // resample_availability keeps at least 80% of capacity, so
            // the worst reachable availability is 0.8 × the smallest
            // pool device.
            lo_avail: 0.8 * lo * GIB,
            hi_avail: hi * GIB,
        };
        FlEnv {
            data,
            splits: Vec::new(),
            fleet: Vec::new(),
            cfg,
            reference_specs,
            input_shape,
            budgets: Vec::new(),
            full,
            lazy: Some(lazy),
        }
    }

    /// Whether per-client state is derived on touch rather than held in
    /// the eager O(N) vectors.
    pub fn is_lazy(&self) -> bool {
        self.lazy.is_some()
    }

    /// Client `k`'s sampled device. Eager environments read the fleet
    /// vector; lazy environments derive the sample from `(seed, k)` via
    /// a domain-separated RNG, so any client's hardware can be
    /// materialized on demand without allocating the rest.
    pub fn client_device(&self, k: usize) -> DeviceSample {
        match &self.lazy {
            None => self.fleet[k],
            Some(lz) => {
                let mut rng = seeded_rng(self.cfg.seed ^ SALT_FLEET ^ (k as u64).wrapping_mul(PHI));
                sample_fleet(&lz.pool, 1, lz.mode, &mut rng)[0]
            }
        }
    }

    /// Client `k`'s FedAvg weight (sample share). Lazy fleets share the
    /// dataset, so every client weighs `1/N`.
    pub fn client_weight(&self, k: usize) -> f32 {
        match &self.lazy {
            None => self.splits[k].weight,
            Some(_) => 1.0 / self.cfg.n_clients as f32,
        }
    }

    /// Client `k`'s training-sample indices.
    ///
    /// # Panics
    ///
    /// Panics on a lazy environment, which holds no per-client splits.
    pub fn client_indices(&self, k: usize) -> &[usize] {
        assert!(
            self.lazy.is_none(),
            "client {k}'s data split was read from a lazy FlEnv, which holds no per-client \
             splits: train on an eager FlEnv::new environment"
        );
        &self.splits[k].indices
    }

    /// Memory budget of client `k` in bytes (tiny-scale mapping of its
    /// device's availability).
    pub fn mem_budget(&self, k: usize) -> u64 {
        match &self.lazy {
            None => self.budgets[k],
            Some(lz) => {
                const RHO_MIN: f64 = 0.2;
                let avail = self.client_device(k).avail_mem_bytes as f64;
                let span = (lz.hi_avail - lz.lo_avail).max(1.0);
                let rho = RHO_MIN + (1.0 - RHO_MIN) * (avail - lz.lo_avail) / span;
                (rho.clamp(RHO_MIN, 1.0) * self.full().mem as f64) as u64
            }
        }
    }

    /// The smallest budget across all clients — the paper's minimal
    /// reserved memory `R_min` (§6.1).
    pub fn r_min(&self) -> u64 {
        match &self.lazy {
            None => *self.budgets.iter().min().expect("non-empty fleet"),
            // The pool lower bound is reachable by construction.
            Some(_) => (0.2 * self.full().mem as f64) as u64,
        }
    }

    /// The full model's cost facts, as computed at construction.
    fn full(&self) -> &FullModel {
        debug_assert_eq!(
            self.full,
            FullModel::of(
                &self.reference_specs,
                &self.input_shape,
                self.cfg.batch_size
            ),
            "FlEnv's reference_specs / input_shape / cfg.batch_size changed after construction"
        );
        &self.full
    }

    /// Memory required to train the full reference model (fixed at
    /// construction).
    pub fn full_mem_req(&self) -> u64 {
        self.full().mem
    }

    /// The round workload of training the full reference model with
    /// `profile`'s passes — the cost of every full-model algorithm.
    pub fn full_model_cost(&self, profile: TrainingPassProfile) -> LatencyModel {
        let full = self.full();
        LatencyModel {
            mem_req_bytes: full.mem,
            fwd_macs_per_sample: full.fwd_macs,
            batch: self.cfg.batch_size,
            profile,
        }
    }

    /// Samples the participating clients of round `t` (uniform without
    /// replacement, deterministic in `(seed, t)`).
    pub fn sample_round(&self, t: usize) -> Vec<usize> {
        self.sample_round_n(t, self.cfg.clients_per_round)
    }

    /// Samples `n` clients for round `t` (uniform without replacement,
    /// deterministic in `(seed, t)`), returned ascending. For any
    /// `n ≤ n'`, the `n`-sample is a prefix of the `n'`-sample's shuffle
    /// (same stream), so over-selection extends — never reshuffles — the
    /// base selection.
    ///
    /// Cost: a Fisher–Yates shuffle of all `n_clients` ids, i.e. one RNG
    /// pass over the whole fleet per round with one 64-bit division per
    /// step (`gen_range`'s rejection zone is computed only for the rare
    /// word above `u64::MAX − span`), plus an `n_clients`-long `Vec` —
    /// O(fleet), not O(cohort), whatever `n` is.
    pub fn sample_round_n(&self, t: usize, n: usize) -> Vec<usize> {
        let mut rng = seeded_rng(self.cfg.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut ids: Vec<usize> = (0..self.cfg.n_clients).collect();
        ids.shuffle(&mut rng);
        ids.truncate(n.min(self.cfg.n_clients));
        ids.sort_unstable();
        ids
    }

    /// An RNG domain-separated for `(round, purpose)`.
    pub fn round_rng(&self, t: usize, purpose: u64) -> StdRng {
        seeded_rng(self.cfg.seed ^ purpose ^ ((t as u64) << 20))
    }

    /// An RNG domain-separated for `(round, client, purpose)`.
    ///
    /// Per-client streams (rather than one sequential per-round stream)
    /// are what let the synchronous and asynchronous schedulers agree
    /// bit-for-bit: a client dispatched against model version `t` draws
    /// the same availability degradation whether the server batched the
    /// round or streamed the dispatch.
    pub fn client_rng(&self, t: usize, k: usize, purpose: u64) -> StdRng {
        seeded_rng(
            self.cfg.seed
                ^ purpose
                ^ ((t as u64) << 20)
                ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }

    /// Serialized parameter bytes of the full reference model — the
    /// payload a full-model dispatch moves down and up the client's link
    /// (fixed at construction).
    pub fn model_param_bytes(&self) -> u64 {
        self.full().param_bytes
    }

    /// Quick validation clean accuracy on at most `max_samples` samples.
    pub fn val_clean(&self, model: &mut CascadeModel, max_samples: usize) -> f32 {
        let (x, y) = self.val_batch(max_samples);
        let logits = model.forward_dx_only(&x);
        // The validation batch's activations must not ride along in the
        // per-client clones of the global model.
        model.clear_cache();
        fp_nn::accuracy(&logits, &y)
    }

    /// Quick validation adversarial accuracy (PGD with the training
    /// budget) on at most `max_samples` samples: [`FlEnv::val_accuracy`]'s
    /// second figure.
    pub fn val_adv(&self, model: &mut CascadeModel, max_samples: usize) -> f32 {
        self.val_accuracy(model, max_samples).1
    }

    /// Quick validation `(clean, adversarial)` accuracy on at most
    /// `max_samples` samples, from one gathered batch: clean logits, PGD
    /// with the training budget, adversarial logits, split by sample over
    /// the thread budget (`fp_attack::split_accuracy`; at a budget of one
    /// `model` itself is attacked).
    pub fn val_accuracy(&self, model: &mut CascadeModel, max_samples: usize) -> (f32, f32) {
        let (x, y) = self.val_batch(max_samples);
        let pgd = Pgd::new(PgdConfig {
            steps: self.cfg.pgd_steps.max(1),
            ..PgdConfig::train_linf(self.cfg.eps0)
        });
        let mut rng = seeded_rng(self.cfg.seed ^ VAL_SEED);
        let threads = fp_tensor::parallel::thread_split(y.len());
        let acc = split_accuracy(model, &x, &y, &pgd, &mut rng, threads);
        model.clear_cache();
        (acc.clean, acc.adv)
    }

    /// The first `min(max_samples, |val|)` validation samples.
    fn val_batch(&self, max_samples: usize) -> (Tensor, Vec<usize>) {
        let n = self.data.val.len().min(max_samples);
        let idx: Vec<usize> = (0..n).collect();
        self.data.val.batch(&idx)
    }
}

/// Domain-separation constant for validation-attack RNG.
const VAL_SEED: u64 = 0x7A11DA7E;

/// Maps each device's available memory onto a training budget for the
/// reference model: the most constrained sampled device lands exactly at
/// the paper's 20 % scenario (`ρ_min = 0.2`), the best at 100 %, linear in
/// between. A uniform fleet gets `ρ = 1` for everyone.
pub fn scale_budgets(fleet: &[DeviceSample], full_mem: u64) -> Vec<u64> {
    const RHO_MIN: f64 = 0.2;
    let min_avail = fleet.iter().map(|d| d.avail_mem_bytes).min().unwrap_or(1);
    let max_avail = fleet.iter().map(|d| d.avail_mem_bytes).max().unwrap_or(1);
    fleet
        .iter()
        .map(|d| {
            let rho = if max_avail == min_avail {
                1.0
            } else {
                RHO_MIN
                    + (1.0 - RHO_MIN) * (d.avail_mem_bytes - min_avail) as f64
                        / (max_avail - min_avail) as f64
            };
            (rho.min(1.0) * full_mem as f64) as u64
        })
        .collect()
}

impl std::fmt::Debug for FlEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlEnv")
            .field("clients", &self.cfg.n_clients)
            .field("lazy", &self.is_lazy())
            .field("train_samples", &self.data.train.len())
            .field("r_min_mb", &(self.r_min() as f64 / 1048576.0))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlConfig;
    use fp_data::{generate, partition_iid, SynthConfig};
    use fp_hwsim::{sample_fleet, SamplingMode, CIFAR_POOL};
    use fp_nn::models::{vgg_atom_specs, VggConfig};

    fn env(seed: u64) -> FlEnv {
        let cfg = FlConfig::fast(4, seed);
        let data = generate(&SynthConfig::tiny(4, 8), seed);
        let splits = partition_iid(&data.train, cfg.n_clients, seed);
        let mut rng = fp_tensor::seeded_rng(seed);
        let fleet = sample_fleet(&CIFAR_POOL, cfg.n_clients, SamplingMode::Balanced, &mut rng);
        let specs = vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[8, 16]));
        FlEnv::new(data, splits, fleet, specs, cfg)
    }

    #[test]
    fn budgets_span_the_rho_range() {
        let e = env(3);
        let full = e.full_mem_req();
        let budgets: Vec<u64> = (0..e.cfg.n_clients).map(|k| e.mem_budget(k)).collect();
        let min = *budgets.iter().min().unwrap();
        let max = *budgets.iter().max().unwrap();
        // The most constrained client sits at the 20% scenario, the best
        // at 100%.
        assert!((min as f64 / full as f64 - 0.2).abs() < 0.02, "min {min}");
        assert!((max as f64 / full as f64 - 1.0).abs() < 0.02, "max {max}");
        assert_eq!(e.r_min(), min);
    }

    #[test]
    fn uniform_fleet_gets_full_budgets() {
        let mut e = env(4);
        for d in &mut e.fleet {
            d.avail_mem_bytes = 1 << 33;
        }
        let e2 = FlEnv::new(
            e.data.clone(),
            e.splits.clone(),
            e.fleet.clone(),
            e.reference_specs.clone(),
            e.cfg,
        );
        assert_eq!(e2.r_min(), e2.full_mem_req());
    }

    /// Both constructors store the full model's cost facts, and the
    /// accessors return exactly what the hwsim functions compute.
    #[test]
    fn full_model_facts_equal_a_fresh_recomputation() {
        let eager = env(3);
        let lazy = FlEnv::lazy(
            eager.data.clone(),
            &CIFAR_POOL,
            SamplingMode::Balanced,
            eager.reference_specs.clone(),
            eager.cfg,
        );
        for e in [&eager, &lazy] {
            let (specs, shape) = (&e.reference_specs, &e.input_shape);
            let mem = model_mem_req(specs, shape, e.cfg.batch_size).total();
            assert_eq!(e.full_mem_req(), mem);
            let cost = e.full_model_cost(TrainingPassProfile::standard());
            assert_eq!(cost.mem_req_bytes, mem);
            assert_eq!(cost.fwd_macs_per_sample, forward_macs(specs, shape));
            assert_eq!(cost.batch, e.cfg.batch_size);
            assert_eq!(e.model_param_bytes(), param_transfer_bytes(specs));
        }
    }

    /// A debug build catches a caller that edits what the stored facts
    /// were derived from.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "changed after construction")]
    fn full_model_facts_reject_a_later_batch_size_edit() {
        let mut e = env(3);
        e.cfg.batch_size += 1;
        e.full_mem_req();
    }

    #[test]
    fn round_sampling_is_deterministic_and_sized() {
        let e = env(5);
        let a = e.sample_round(7);
        let b = e.sample_round(7);
        assert_eq!(a, b);
        assert_eq!(a.len(), e.cfg.clients_per_round);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted unique ids");
        // Different rounds differ (with overwhelming probability).
        let c = e.sample_round(8);
        assert!(a != c || e.cfg.clients_per_round == e.cfg.n_clients);
    }

    /// `val_accuracy` splits its batch over the thread budget and still
    /// reports the one-chunk figures (the pre-split `val_clean` /
    /// `val_adv`), and every worker count gives the same adversarial rows.
    #[test]
    fn split_validation_val_accuracy_matches_one_chunk() {
        let e = env(7);
        let mut rng = fp_tensor::seeded_rng(1);
        let mut model = fp_nn::models::instantiate(
            &e.reference_specs,
            &e.input_shape,
            e.data.train.n_classes(),
            &mut rng,
        );
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let pgd = Pgd::new(PgdConfig {
            steps: e.cfg.pgd_steps.max(1),
            ..PgdConfig::train_linf(e.cfg.eps0)
        });
        for n in [0, 1, 2, 31, 63, 64] {
            let (x, y) = e.val_batch(n);
            let run = |workers| {
                let mut rng = seeded_rng(e.cfg.seed ^ VAL_SEED);
                split_accuracy(&mut model.clone(), &x, &y, &pgd, &mut rng, (workers, 1))
            };
            let one = run(1);
            for workers in 2..=4 {
                let split = run(workers);
                assert_eq!(
                    bits(&split.adv_x),
                    bits(&one.adv_x),
                    "n {n} workers {workers}"
                );
                assert_eq!((split.clean, split.adv), (one.clean, one.adv), "n {n}");
            }
            let both = e.val_accuracy(&mut model, n);
            assert_eq!(both, (one.clean, one.adv), "n {n}: val_accuracy");
            assert_eq!(e.val_clean(&mut model, n), one.clean, "n {n}: val_clean");
            assert_eq!(e.val_adv(&mut model, n), one.adv, "n {n}: val_adv");
        }
    }

    #[test]
    fn validation_metrics_are_probabilities() {
        let e = env(6);
        let mut rng = fp_tensor::seeded_rng(0);
        let mut model = fp_nn::models::instantiate(
            &e.reference_specs,
            &e.input_shape,
            e.data.train.n_classes(),
            &mut rng,
        );
        let clean = e.val_clean(&mut model, 32);
        let adv = e.val_adv(&mut model, 32);
        assert!((0.0..=1.0).contains(&clean));
        assert!((0.0..=1.0).contains(&adv));
        assert!(adv <= clean + 0.3, "adv {adv} clean {clean}");
    }

    /// A just-evaluated global model carries no cached activations into
    /// its per-client clones: every layer of the clone refuses a backward.
    #[test]
    fn evaluated_model_clones_without_cached_activations() {
        let e = env(6);
        let mut rng = fp_tensor::seeded_rng(0);
        let mut model = fp_nn::models::instantiate(
            &e.reference_specs,
            &e.input_shape,
            e.data.train.n_classes(),
            &mut rng,
        );
        let no_cache_left = |model: &CascadeModel| {
            let mut layers = 0;
            for atom in model.clone().atoms_mut() {
                for layer in atom.children_mut() {
                    let grad = fp_tensor::Tensor::zeros(&[1]);
                    let backward = std::panic::AssertUnwindSafe(|| layer.backward_input(&grad));
                    let refused = std::panic::catch_unwind(backward).unwrap_err();
                    let msg = refused
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| refused.downcast_ref::<&str>().copied())
                        .unwrap_or_default();
                    assert!(msg.contains("backward called before forward"), "{msg}");
                    layers += 1;
                }
            }
            assert!(layers > 0);
        };
        e.val_clean(&mut model, 32);
        no_cache_left(&model);
        e.val_adv(&mut model, 32);
        no_cache_left(&model);
    }

    #[test]
    #[should_panic(expected = "field `io_gbps`")]
    fn rejects_non_costable_device_at_config_time() {
        let e = env(8);
        let mut fleet = e.fleet.clone();
        fleet[0].device.io_gbps = 0.0;
        FlEnv::new(
            e.data.clone(),
            e.splits.clone(),
            fleet,
            e.reference_specs.clone(),
            e.cfg,
        );
    }

    #[test]
    #[should_panic(expected = "fleet size mismatch")]
    fn rejects_inconsistent_fleet() {
        let e = env(7);
        FlEnv::new(
            e.data.clone(),
            e.splits.clone(),
            e.fleet[0..2].to_vec(),
            e.reference_specs.clone(),
            e.cfg,
        );
    }

    /// Round selection on a 20 000-client lazy fleet (the
    /// `fleet_sync_deadline` shape: 32 per round, ×1.3 over-selected to
    /// 42), pinned to the ids the two-division bounded draw produced; and
    /// each smaller sample is contained in every larger one of its round.
    #[test]
    fn fleet_selection_is_pinned_and_nested() {
        let mut cfg = FlConfig::fast(4, 7);
        cfg.n_clients = 20_000;
        cfg.clients_per_round = 32;
        let data = generate(&SynthConfig::tiny(4, 8), 7);
        let specs = vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[8, 16]));
        let e = FlEnv::lazy(data, &CIFAR_POOL, SamplingMode::Balanced, specs, cfg);
        let pinned: [(usize, [usize; 42]); 3] = [
            (
                0,
                [
                    1918, 2548, 2684, 2877, 3474, 4123, 4288, 4442, 5438, 6096, 6301, 6383, 6722,
                    7237, 7361, 9243, 9559, 9671, 10027, 10108, 10198, 10226, 10476, 11160, 11719,
                    12449, 12906, 12932, 13095, 13655, 14119, 14899, 15170, 15373, 16371, 16410,
                    16493, 16642, 18111, 18311, 18968, 19973,
                ],
            ),
            (
                1,
                [
                    1663, 1793, 2140, 2557, 3723, 3935, 4162, 4798, 5046, 5381, 5449, 5660, 5851,
                    6734, 6998, 7724, 8566, 9787, 10156, 10467, 11466, 11674, 11684, 11875, 11976,
                    12374, 12598, 12737, 13044, 14494, 14662, 14683, 14957, 15144, 15245, 15694,
                    16796, 17621, 18477, 18549, 18714, 19754,
                ],
            ),
            (
                249,
                [
                    758, 826, 970, 1094, 1285, 2413, 2614, 2713, 3439, 4125, 4601, 4681, 4692,
                    5651, 6255, 6410, 6750, 7126, 8159, 8171, 8639, 8889, 9016, 9146, 10854, 11284,
                    11693, 12788, 13394, 13417, 14029, 14486, 15821, 15845, 16153, 16374, 16626,
                    16638, 16769, 19347, 19509, 19883,
                ],
            ),
        ];
        for (t, want) in pinned {
            assert_eq!(e.sample_round_n(t, 42), want, "round {t}");
            let mut prev: Vec<usize> = Vec::new();
            for n in [0, 1, 8, 32, 42, 500, 20_000, 30_000] {
                let ids = e.sample_round_n(t, n);
                assert_eq!(ids.len(), n.min(20_000), "round {t}, n = {n}");
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "round {t}, n = {n}");
                assert!(
                    prev.iter().all(|k| ids.binary_search(k).is_ok()),
                    "round {t}: the {}-sample is not inside the {n}-sample",
                    prev.len()
                );
                prev = ids;
            }
        }
    }
}
