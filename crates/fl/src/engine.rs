//! The federated simulation environment.

use crate::config::FlConfig;
use crate::metrics::FlOutcome;
use fp_attack::{ModelTarget, Pgd, PgdConfig};
use fp_data::{ClientSplit, SynthDataset};
use fp_hwsim::{model_mem_req, sample_fleet, Device, DeviceSample, SamplingMode};
use fp_nn::spec::AtomSpec;
use fp_nn::CascadeModel;
use fp_tensor::seeded_rng;
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
    full_mem: u64,
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
        let full_mem = model_mem_req(&reference_specs, &input_shape, cfg.batch_size).total();
        let budgets = scale_budgets(&fleet, full_mem);
        FlEnv {
            data,
            splits,
            fleet,
            cfg,
            reference_specs,
            input_shape,
            budgets,
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
    /// Client weights are uniform (`1/N`) and data is shared (every
    /// client trains on the full synthetic set); only the scheduler-
    /// facing accessors understand lazy mode — eager-only baselines that
    /// index `env.splits`/`env.fleet` directly must not be handed a lazy
    /// environment.
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
        let full_mem = model_mem_req(&reference_specs, &input_shape, cfg.batch_size).total();
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
            full_mem,
        };
        FlEnv {
            data,
            splits: Vec::new(),
            fleet: Vec::new(),
            cfg,
            reference_specs,
            input_shape,
            budgets: Vec::new(),
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
                (rho.clamp(RHO_MIN, 1.0) * lz.full_mem as f64) as u64
            }
        }
    }

    /// The smallest budget across all clients — the paper's minimal
    /// reserved memory `R_min` (§6.1).
    pub fn r_min(&self) -> u64 {
        match &self.lazy {
            None => *self.budgets.iter().min().expect("non-empty fleet"),
            // The pool lower bound is reachable by construction.
            Some(lz) => (0.2 * lz.full_mem as f64) as u64,
        }
    }

    /// Memory required to train the full reference model.
    pub fn full_mem_req(&self) -> u64 {
        model_mem_req(
            &self.reference_specs,
            &self.input_shape,
            self.cfg.batch_size,
        )
        .total()
    }

    /// Samples the participating clients of round `t` (uniform without
    /// replacement, deterministic in `(seed, t)`).
    pub fn sample_round(&self, t: usize) -> Vec<usize> {
        self.sample_round_n(t, self.cfg.clients_per_round)
    }

    /// Samples `n` clients for round `t` (uniform without replacement,
    /// deterministic in `(seed, t)`). For any `n ≤ n'`, the `n`-sample is
    /// a prefix of the `n'`-sample of the same round (same shuffle), so
    /// over-selection extends — never reshuffles — the base selection.
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
    /// payload a full-model dispatch moves down and up the client's link.
    pub fn model_param_bytes(&self) -> u64 {
        fp_hwsim::param_transfer_bytes(&self.reference_specs)
    }

    /// Quick validation clean accuracy on at most `max_samples` samples.
    pub fn val_clean(&self, model: &mut CascadeModel, max_samples: usize) -> f32 {
        let n = self.data.val.len().min(max_samples);
        let idx: Vec<usize> = (0..n).collect();
        let (x, y) = self.data.val.batch(&idx);
        let logits = model.forward(&x, fp_nn::Mode::Eval);
        // The validation batch's activations must not ride along in the
        // per-client clones of the global model.
        model.clear_cache();
        fp_nn::accuracy(&logits, &y)
    }

    /// Quick validation adversarial accuracy (PGD with the training
    /// budget) on at most `max_samples` samples.
    pub fn val_adv(&self, model: &mut CascadeModel, max_samples: usize) -> f32 {
        let n = self.data.val.len().min(max_samples);
        let idx: Vec<usize> = (0..n).collect();
        let (x, y) = self.data.val.batch(&idx);
        let pgd = Pgd::new(PgdConfig {
            steps: self.cfg.pgd_steps.max(1),
            ..PgdConfig::train_linf(self.cfg.eps0)
        });
        let mut rng = seeded_rng(self.cfg.seed ^ VAL_SEED);
        let mut target = ModelTarget::new(model);
        let adv = pgd.attack(&mut target, &x, &y, &mut rng);
        let logits = model.forward(&adv, fp_nn::Mode::Eval);
        model.clear_cache();
        fp_nn::accuracy(&logits, &y)
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
                for layer in atom.layers_mut().children_mut() {
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
}
